#include "src/util/file_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace swft {

bool readWholeFile(int dirFd, const char* name, std::string& out) {
  const int fd = ::openat(dirFd, name, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[4096];
  bool ok = true;
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ok = false;
      break;
    }
  }
  ::close(fd);
  return ok;
}

bool writeWholeFile(int dirFd, const char* name, std::string_view bytes) {
  const int fd = ::openat(dirFd, name, O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  const auto length = static_cast<off_t>(bytes.size());
  bool ok = true;
  while (ok && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n > 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      ok = false;
    }
  }
  // Cut what is left of a longer old file. What is not a regular file (a
  // device, a FIFO) has no length to cut: ftruncate fails there with EINVAL.
  if (ok && ::ftruncate(fd, length) != 0 && errno != EINVAL) ok = false;
  return ::close(fd) == 0 && ok;
}

}  // namespace swft
