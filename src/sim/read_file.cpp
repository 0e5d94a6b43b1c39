#include "sim/read_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace cord
{

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out,
              std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = "cannot open '" + path + "' for reading: " +
              std::strerror(errno);
        return false;
    }
    out.clear();
    std::uint8_t buf[65536] = {};
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    const bool failed = std::ferror(f) != 0;
    const int readErrno = errno;
    std::fclose(f);
    if (failed)
        err = "cannot read '" + path + "': " + std::strerror(readErrno);
    return !failed;
}

} // namespace cord
