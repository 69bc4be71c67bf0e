#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace apar::serial {

/// Error raised on malformed or truncated input, or on a wire-format
/// mismatch between writer and reader.
class SerialError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wire format.
///
/// kCompact models the paper's MPP middleware: raw little-endian scalars and
/// varint-encoded lengths, no metadata.
///
/// kVerbose models Java RMI / object serialization: every value carries a
/// one-byte type tag and containers carry an element-type descriptor string,
/// making payloads self-describing (and markedly larger) — the property that
/// gives the RMI middleware its higher per-byte cost in Figure 17.
enum class Format : std::uint8_t { kCompact = 0, kVerbose = 1 };

namespace detail {
enum class Tag : std::uint8_t {
  kBool = 1,
  kI8,
  kU8,
  kI16,
  kU16,
  kI32,
  kU32,
  kI64,
  kU64,
  kF32,
  kF64,
  kString,
  kSequence,
  kOptional,
  kObject,
};

template <class T>
constexpr Tag tag_for() {
  if constexpr (std::is_same_v<T, bool>) return Tag::kBool;
  else if constexpr (std::is_same_v<T, float>) return Tag::kF32;
  else if constexpr (std::is_same_v<T, double>) return Tag::kF64;
  else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    if constexpr (sizeof(T) == 1) return Tag::kI8;
    else if constexpr (sizeof(T) == 2) return Tag::kI16;
    else if constexpr (sizeof(T) == 4) return Tag::kI32;
    else return Tag::kI64;
  } else {
    if constexpr (sizeof(T) == 1) return Tag::kU8;
    else if constexpr (sizeof(T) == 2) return Tag::kU16;
    else if constexpr (sizeof(T) == 4) return Tag::kU32;
    else return Tag::kU64;
  }
}

template <class T>
const char* type_name() {
  if constexpr (std::is_same_v<T, bool>) return "bool";
  else if constexpr (std::is_same_v<T, float>) return "f32";
  else if constexpr (std::is_same_v<T, double>) return "f64";
  else if constexpr (std::is_integral_v<T>) return "int";
  else return "object";
}
}  // namespace detail

class Writer;
class Reader;

namespace detail {
/// ADL hook detection: a user type T is serializable if it provides
///   void serialize(apar::serial::Writer&, const T&);
///   void deserialize(apar::serial::Reader&, T&);
/// in T's namespace (or via the APAR_SERIALIZE_FIELDS macro).
template <class T>
concept AdlWritable = requires(Writer& w, const T& v) { serialize(w, v); };
template <class T>
concept AdlReadable = requires(Reader& r, T& v) { deserialize(r, v); };
}  // namespace detail

/// Serializing byte-stream writer.
class Writer {
 public:
  explicit Writer(Format format = Format::kCompact) : format_(format) {}

  [[nodiscard]] Format format() const { return format_; }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Arithmetic scalar (and bool).
  template <class T>
    requires std::is_arithmetic_v<T>
  void value(T v) {
    if (format_ == Format::kVerbose) tag(detail::tag_for<T>());
    raw(&v, sizeof v);
  }

  /// Enum, encoded via its underlying type.
  template <class T>
    requires std::is_enum_v<T>
  void value(T v) {
    value(static_cast<std::underlying_type_t<T>>(v));
  }

  void value(const std::string& s) { value(std::string_view(s)); }
  void value(std::string_view s) {
    if (format_ == Format::kVerbose) tag(detail::Tag::kString);
    length(s.size());
    raw(s.data(), s.size());
  }

  template <class T>
  void value(const std::vector<T>& v) {
    begin_sequence<T>(v.size());
    if constexpr (std::is_same_v<T, bool>) {
      // vector<bool> is a bit-proxy container: encode one byte per value.
      for (const bool b : v) {
        const std::uint8_t byte = b ? 1 : 0;
        raw(&byte, 1);
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      // Bulk copy: element tags are hoisted into the sequence descriptor.
      raw(v.data(), v.size() * sizeof(T));
    } else {
      for (const auto& e : v) value(e);
    }
  }

  template <class A, class B>
  void value(const std::pair<A, B>& p) {
    value(p.first);
    value(p.second);
  }

  template <class... Ts>
  void value(const std::tuple<Ts...>& t) {
    std::apply([this](const auto&... e) { (value(e), ...); }, t);
  }

  template <class T>
  void value(const std::optional<T>& o) {
    if (format_ == Format::kVerbose) tag(detail::Tag::kOptional);
    value(o.has_value());
    if (o) value(*o);
  }

  template <class K, class V>
  void value(const std::map<K, V>& m) {
    begin_sequence<std::pair<K, V>>(m.size());
    for (const auto& kv : m) value(kv);
  }

  /// User-defined type with an ADL `serialize(Writer&, const T&)` hook
  /// (see APAR_SERIALIZE_FIELDS).
  template <detail::AdlWritable T>
  void value(const T& v) {
    serialize(*this, v);
  }

  /// Open a named object scope. In verbose mode the name travels on the
  /// wire (the RMI "class descriptor"); in compact mode it is free.
  void begin_object(std::string_view name) {
    if (format_ == Format::kVerbose) {
      tag(detail::Tag::kObject);
      length(name.size());
      raw(name.data(), name.size());
    }
  }

  /// Varint-encoded length/count.
  void length(std::size_t n) {
    auto v = static_cast<std::uint64_t>(n);
    while (v >= 0x80) {
      const auto b = static_cast<std::uint8_t>(v | 0x80);
      raw(&b, 1);
      v >>= 7;
    }
    const auto b = static_cast<std::uint8_t>(v);
    raw(&b, 1);
  }

 private:
  template <class T>
  void begin_sequence(std::size_t n) {
    if (format_ == Format::kVerbose) {
      tag(detail::Tag::kSequence);
      const char* name = detail::type_name<T>();
      const std::size_t len = std::char_traits<char>::length(name);
      length(len);
      raw(name, len);
    }
    length(n);
  }

  void tag(detail::Tag t) { raw(&t, 1); }

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  Format format_;
  std::vector<std::byte> buf_;
};

/// Deserializing byte-stream reader; the exact mirror of Writer.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size,
         Format format = Format::kCompact)
      : format_(format), data_(data), size_(size) {}

  explicit Reader(const std::vector<std::byte>& buf,
                  Format format = Format::kCompact)
      : Reader(buf.data(), buf.size(), format) {}

  [[nodiscard]] Format format() const { return format_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

  template <class T>
    requires std::is_arithmetic_v<T>
  void value(T& v) {
    if (format_ == Format::kVerbose) expect_tag(detail::tag_for<T>());
    raw(&v, sizeof v);
  }

  template <class T>
    requires std::is_enum_v<T>
  void value(T& v) {
    std::underlying_type_t<T> u{};
    value(u);
    v = static_cast<T>(u);
  }

  void value(std::string& s) {
    if (format_ == Format::kVerbose) expect_tag(detail::Tag::kString);
    const std::size_t n = length();
    check(n);
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }

  template <class T>
  void value(std::vector<T>& v) {
    const std::size_t n = begin_sequence<T>();
    if constexpr (std::is_same_v<T, bool>) {
      check(n);
      v.clear();
      v.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t byte = 0;
        raw(&byte, 1);
        v.push_back(byte != 0);
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      check(n * sizeof(T));
      v.resize(n);
      // An empty vector's data() may be null, which memcpy must not get.
      if (n != 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    } else {
      v.clear();
      v.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        T e{};
        value(e);
        v.push_back(std::move(e));
      }
    }
  }

  template <class A, class B>
  void value(std::pair<A, B>& p) {
    value(p.first);
    value(p.second);
  }

  template <class... Ts>
  void value(std::tuple<Ts...>& t) {
    std::apply([this](auto&... e) { (value(e), ...); }, t);
  }

  template <class T>
  void value(std::optional<T>& o) {
    if (format_ == Format::kVerbose) expect_tag(detail::Tag::kOptional);
    bool has = false;
    value(has);
    if (has) {
      T v{};
      value(v);
      o = std::move(v);
    } else {
      o.reset();
    }
  }

  template <class K, class V>
  void value(std::map<K, V>& m) {
    const std::size_t n = begin_sequence<std::pair<K, V>>();
    m.clear();
    for (std::size_t i = 0; i < n; ++i) {
      std::pair<K, V> kv{};
      value(kv);
      m.insert(std::move(kv));
    }
  }

  /// User-defined type with an ADL `deserialize(Reader&, T&)` hook.
  template <detail::AdlReadable T>
  void value(T& v) {
    deserialize(*this, v);
  }

  /// Read an object scope header; returns the descriptor name (verbose) or
  /// an empty string (compact).
  std::string begin_object() {
    if (format_ != Format::kVerbose) return {};
    expect_tag(detail::Tag::kObject);
    std::size_t n = length();
    check(n);
    std::string name(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return name;
  }

  std::size_t length() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift > 63) throw SerialError("varint overflow");
      std::uint8_t b = 0;
      raw(&b, 1);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) break;
      shift += 7;
    }
    return static_cast<std::size_t>(v);
  }

 private:
  template <class T>
  std::size_t begin_sequence() {
    if (format_ == Format::kVerbose) {
      expect_tag(detail::Tag::kSequence);
      const std::size_t n = length();
      check(n);
      const std::string_view got(reinterpret_cast<const char*>(data_ + pos_), n);
      pos_ += n;
      if (got != detail::type_name<T>())
        throw SerialError("sequence element type mismatch: expected " +
                          std::string(detail::type_name<T>()) + ", got " +
                          std::string(got));
    }
    return length();
  }

  void expect_tag(detail::Tag want) {
    detail::Tag got{};
    raw(&got, 1);
    if (got != want)
      throw SerialError("type tag mismatch (want " +
                        std::to_string(static_cast<int>(want)) + ", got " +
                        std::to_string(static_cast<int>(got)) + ")");
  }

  void check(std::size_t n) const {
    if (n > size_ - pos_) throw SerialError("truncated input");
  }

  void raw(void* out, std::size_t n) {
    check(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  Format format_;
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Convenience: serialize a pack of values into a fresh buffer.
template <class... Ts>
std::vector<std::byte> encode(Format format, const Ts&... vs) {
  Writer w(format);
  (w.value(vs), ...);
  return w.take();
}

/// Convenience: decode a tuple of values from a buffer, checking that the
/// buffer is fully consumed.
template <class... Ts>
std::tuple<Ts...> decode(const std::vector<std::byte>& buf, Format format) {
  Reader r(buf, format);
  std::tuple<Ts...> out{};
  std::apply([&](auto&... e) { (r.value(e), ...); }, out);
  if (!r.exhausted()) throw SerialError("trailing bytes after decode");
  return out;
}

/// Byte-size overhead of the verbose format relative to compact for the same
/// values — reported by bench/transport_costs.
template <class... Ts>
double verbose_overhead(const Ts&... vs) {
  const auto compact = encode(Format::kCompact, vs...);
  const auto verbose = encode(Format::kVerbose, vs...);
  if (compact.empty()) return 1.0;
  return static_cast<double>(verbose.size()) /
         static_cast<double>(compact.size());
}

}  // namespace apar::serial

/// Generate the ADL serialize/deserialize hooks for an aggregate-like
/// type's listed fields. Must appear in the type's own namespace:
///
///   struct TokenCount { std::string word; long long n = 0; };
///   APAR_SERIALIZE_FIELDS(TokenCount, word, n)
#define APAR_SERIALIZE_FIELDS(TYPE, ...)                                  \
  inline void serialize(::apar::serial::Writer& writer_, const TYPE& v) { \
    writer_.begin_object(#TYPE);                                          \
    APAR_SERIAL_FOREACH_(APAR_SERIAL_WRITE_, __VA_ARGS__)                 \
  }                                                                       \
  inline void deserialize(::apar::serial::Reader& reader_, TYPE& v) {    \
    (void)reader_.begin_object();                                         \
    APAR_SERIAL_FOREACH_(APAR_SERIAL_READ_, __VA_ARGS__)                  \
  }

#define APAR_SERIAL_WRITE_(FIELD) writer_.value(v.FIELD);
#define APAR_SERIAL_READ_(FIELD) reader_.value(v.FIELD);

// Apply macro M to up to 8 fields.
#define APAR_SERIAL_FOREACH_(M, ...)                                  \
  APAR_SERIAL_GET9_(__VA_ARGS__, APAR_SERIAL_F8_, APAR_SERIAL_F7_,    \
                    APAR_SERIAL_F6_, APAR_SERIAL_F5_, APAR_SERIAL_F4_, \
                    APAR_SERIAL_F3_, APAR_SERIAL_F2_, APAR_SERIAL_F1_) \
  (M, __VA_ARGS__)
#define APAR_SERIAL_GET9_(a1, a2, a3, a4, a5, a6, a7, a8, NAME, ...) NAME
#define APAR_SERIAL_F1_(M, a) M(a)
#define APAR_SERIAL_F2_(M, a, ...) M(a) APAR_SERIAL_F1_(M, __VA_ARGS__)
#define APAR_SERIAL_F3_(M, a, ...) M(a) APAR_SERIAL_F2_(M, __VA_ARGS__)
#define APAR_SERIAL_F4_(M, a, ...) M(a) APAR_SERIAL_F3_(M, __VA_ARGS__)
#define APAR_SERIAL_F5_(M, a, ...) M(a) APAR_SERIAL_F4_(M, __VA_ARGS__)
#define APAR_SERIAL_F6_(M, a, ...) M(a) APAR_SERIAL_F5_(M, __VA_ARGS__)
#define APAR_SERIAL_F7_(M, a, ...) M(a) APAR_SERIAL_F6_(M, __VA_ARGS__)
#define APAR_SERIAL_F8_(M, a, ...) M(a) APAR_SERIAL_F7_(M, __VA_ARGS__)
