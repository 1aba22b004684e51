#include "export_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>

namespace blitz::trace {

void
ExportWriter::flush()
{
    if (len_) {
        os_.write(buf_, static_cast<std::streamsize>(len_));
        len_ = 0;
    }
}

ExportWriter &
ExportWriter::putLong(std::string_view s)
{
    flush();
    if (s.size() >= kBufBytes) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
    }
    return put(s);
}

ExportWriter &
ExportWriter::u64(std::uint64_t v)
{
    char *p = room(kNumberMax);
    len_ = static_cast<std::size_t>(
        std::to_chars(p, buf_ + kBufBytes, v).ptr - buf_);
    return *this;
}

ExportWriter &
ExportWriter::i64(std::int64_t v)
{
    char *p = room(kNumberMax);
    len_ = static_cast<std::size_t>(
        std::to_chars(p, buf_ + kBufBytes, v).ptr - buf_);
    return *this;
}

ExportWriter &
ExportWriter::fixed(double v, int prec)
{
    char *p = room(kNumberMax);
    len_ = static_cast<std::size_t>(
        std::to_chars(p, buf_ + kBufBytes, v, std::chars_format::fixed,
                      prec)
            .ptr -
        buf_);
    return *this;
}

ExportWriter &
ExportWriter::general(double v, int prec)
{
    char *p = room(kNumberMax);
    len_ = static_cast<std::size_t>(
        std::to_chars(p, buf_ + kBufBytes, v, std::chars_format::general,
                      prec)
            .ptr -
        buf_);
    return *this;
}

ExportWriter &
ExportWriter::roundTrip(double v)
{
    if (!std::isfinite(v))
        return general(v, 6);
    // No precision below the shortest round-trip form's digit count
    // can parse back to v, so the search starts there.
    char sci[32];
    const char *sciEnd =
        std::to_chars(sci, sci + sizeof sci, v,
                      std::chars_format::scientific)
            .ptr;
    int digits = 0;
    for (const char *c = sci; c != sciEnd && *c != 'e'; ++c)
        digits += *c >= '0' && *c <= '9';
    // The shortest form may sit on the wide side of a power of two
    // where %.<digits>g rounds to the narrow side and misses v (2^-44
    // is one); then a longer precision is needed, as printf would.
    char *p = room(kNumberMax);
    for (int prec = std::max(6, digits);; ++prec) {
        char *end = std::to_chars(p, buf_ + kBufBytes, v,
                                  std::chars_format::general, prec)
                        .ptr;
        double back = 0.0;
        if (prec >= 17 || (std::from_chars(p, end, back).ptr == end &&
                           back == v)) {
            len_ = static_cast<std::size_t>(end - buf_);
            return *this;
        }
    }
}

ExportWriter &
ExportWriter::quoted(std::string_view s)
{
    put('"');
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '"' || s[i] == '\\') {
            put(s.substr(run, i - run)).put('\\');
            run = i; // the escaped char opens the next run
        }
    }
    return put(s.substr(run)).put('"');
}

} // namespace blitz::trace
