/**
 * @file
 * The one text writer behind every observability export.
 *
 * Tracer, Registry/MetricsSeries, HealthReport and NocTrace all render
 * through an ExportWriter: it appends into a fixed buffer on the
 * writer's own stack frame and hands each full buffer to the stream in
 * one ostream::write, so an export makes no per-token stream call and
 * no heap allocation: the writers add no malloc to the FlushGuard's
 * signal-time flush (flush_guard.hpp).
 *
 * Byte-identity contract: numbers go through std::to_chars, which the
 * standard specifies "as if by printf" in the C locale, so each method
 * reproduces the printf conversion named in its comment byte for byte
 * (trace_plane_test keeps the printf forms as a differential
 * reference).
 *
 * The buffer is flushed when it fills and when the writer is
 * destroyed; do not interleave direct stream output with a live writer
 * on the same stream.
 */

#ifndef BLITZ_TRACE_EXPORT_WRITER_HPP
#define BLITZ_TRACE_EXPORT_WRITER_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string_view>

namespace blitz::trace {

class ExportWriter
{
  public:
    explicit ExportWriter(std::ostream &os) : os_(os) {}

    ~ExportWriter()
    {
        // Only a stream with exceptions() enabled throws from write,
        // and it has recorded the failure in its rdstate() first; a
        // destructor must not let the exception escape.
        try {
            flush();
        } catch (...) {
        }
    }

    ExportWriter(const ExportWriter &) = delete;
    ExportWriter &operator=(const ExportWriter &) = delete;

    ExportWriter &
    put(char c)
    {
        *room(1) = c;
        ++len_;
        return *this;
    }

    ExportWriter &
    put(std::string_view s)
    {
        if (s.size() > kBufBytes - len_)
            return putLong(s);
        std::memcpy(buf_ + len_, s.data(), s.size());
        len_ += s.size();
        return *this;
    }

    /** printf "%llu". */
    ExportWriter &u64(std::uint64_t v);

    /** printf "%lld". */
    ExportWriter &i64(std::int64_t v);

    /** printf "%.<prec>f", prec <= 17. */
    ExportWriter &fixed(double v, int prec);

    /** printf "%.<prec>g", prec <= 17. */
    ExportWriter &general(double v, int prec);

    /**
     * printf "%.<P>g" at the smallest P >= 6 whose text parses back to
     * @p v bit-identically (P = 6 for inf/nan, which never parse back
     * equal). Metric values are exact simulator state, so %.17g would
     * print noise digits.
     */
    ExportWriter &roundTrip(double v);

    /** JSON string literal: @p s in quotes, '"' and '\' escaped. */
    ExportWriter &quoted(std::string_view s);

    /** Hand the buffered bytes to the stream. */
    void flush();

  private:
    static constexpr std::size_t kBufBytes = 4096;
    /** Longest number: "%.17f" of -DBL_MAX, 1 + 309 + 1 + 17 chars. */
    static constexpr std::size_t kNumberMax = 328;

    /** Pointer to at least @p n free bytes, flushing to make room. */
    char *
    room(std::size_t n)
    {
        if (kBufBytes - len_ < n)
            flush();
        return buf_ + len_;
    }

    ExportWriter &putLong(std::string_view s);

    std::ostream &os_;
    std::size_t len_ = 0;
    char buf_[kBufBytes];
};

} // namespace blitz::trace

#endif // BLITZ_TRACE_EXPORT_WRITER_HPP
