/**
 * @file
 * The one reader for whole user-supplied files (traces, order logs,
 * schedule logs, manifests).
 *
 * It reads to end of file rather than sizing a buffer from
 * fseek/ftell: ftell on a directory returns LONG_MAX, and a buffer of
 * that size aborts with std::bad_alloc.  A directory instead fails the
 * first read, which ferror() reports.
 */

#ifndef CORD_SIM_READ_FILE_H
#define CORD_SIM_READ_FILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace cord
{

/**
 * Read all of @p path into @p out.  Returns false, with a one-line
 * message naming the path in @p err, when the file cannot be opened
 * or read (a directory included); @p out is then unspecified.
 */
bool readFileBytes(const std::string &path, std::vector<std::uint8_t> &out,
                   std::string &err);

} // namespace cord

#endif // CORD_SIM_READ_FILE_H
