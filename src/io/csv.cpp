#include "io/csv.hpp"

#include <array>
#include <cstring>

namespace rolediet::io {

// -------------------------------------------------------------- CsvReader ---

CsvReader::CsvReader(std::istream& in, std::string source, std::size_t block_size)
    : in_(&in),
      source_(std::move(source)),
      capacity_(std::max<std::size_t>(block_size, 1)) {
  // For overwrite: a fresh buffer is never zero-filled, so a small input
  // touches only the pages it is read into.
  buffer_ = std::make_unique_for_overwrite<char[]>(capacity_);
}

CsvReader::CsvReader(std::string_view record)
    : buffer_(std::make_unique_for_overwrite<char[]>(record.size())),
      capacity_(record.size()),
      end_(record.size()),
      eof_(true) {
  if (!record.empty()) std::memcpy(buffer_.get(), record.data(), record.size());
}

void CsvReader::fail(const std::string& what) const {
  if (source_.empty()) throw CsvError(what);
  throw CsvError(source_ + ":" + std::to_string(line_) + ": " + what);
}

bool CsvReader::fill() {
  if (eof_) return false;
  if (begin_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  } else if (end_ == capacity_) {
    // One record fills the whole buffer: the only case that grows it.
    auto bigger = std::make_unique_for_overwrite<char[]>(2 * capacity_);
    std::memcpy(bigger.get(), buffer_.get(), end_);
    buffer_ = std::move(bigger);
    capacity_ *= 2;
  }
  const std::size_t want = capacity_ - end_;
  in_->read(buffer_.get() + end_, static_cast<std::streamsize>(want));
  if (in_->bad()) fail("read failed");
  const auto got = static_cast<std::size_t>(in_->gcount());
  end_ += got;
  if (got < want) eof_ = true;
  return got > 0;
}

std::optional<CsvRecord> CsvReader::next() {
  if (in_ == nullptr) {  // the in-memory record: once, even when blank
    if (line_ > 0) return std::nullopt;
    line_ = next_line_;
    (void)split();
    return CsvRecord{fields_, line_};
  }
  for (;;) {
    line_ = next_line_;
    if (begin_ == end_ && !fill()) return std::nullopt;
    std::optional<std::size_t> size;
    while (!(size = split())) (void)fill();
    // Blank: an empty line, or a lone '\r' (one byte, one empty field).
    if (*size > 1 || fields_.size() > 1 || !fields_[0].empty()) return CsvRecord{fields_, line_};
  }
}

namespace {

/// The bytes that stop an unquoted field. In a stream a line break ends the
/// record; in an in-memory record it is content.
constexpr std::array<bool, 256> stops(bool line_break) {
  std::array<bool, 256> out{};
  out[','] = out['"'] = true;
  out['\n'] = line_break;
  return out;
}
constexpr std::array<bool, 256> kStreamStops = stops(true);
constexpr std::array<bool, 256> kRecordStops = stops(false);

/// A quoting error's message: the reason, then the record from its start to
/// the end of the line that holds the error.
std::string quoting_error(const char* what, const char* text, std::size_t size, std::size_t at) {
  const void* line_break = std::memchr(text + at, '\n', size - at);
  return std::string(what).append(
      text, line_break ? static_cast<std::size_t>(static_cast<const char*>(line_break) - text)
                       : size);
}

}  // namespace

std::optional<std::size_t> CsvReader::split() {
  char* const text = buffer_.get() + begin_;
  const std::size_t size = end_ - begin_;
  const bool stream = in_ != nullptr;
  // Running off the data means "read more and start over" while the stream
  // has more; otherwise the data's end is the record's.
  const bool more = stream && !eof_;
  const std::array<bool, 256>& stop_at = stream ? kStreamStops : kRecordStops;
  fields_.clear();
  escaped_.clear();
  std::size_t breaks = 0;  // line breaks inside quoted fields
  std::size_t i = 0;       // start of the current field
  std::size_t end = 0;     // end of the record's text, before its line break
  for (;;) {
    if (i < size && text[i] == '"') {
      std::size_t close = i + 1;
      bool escapes = false;
      for (;;) {
        while (close < size && text[close] != '"') breaks += text[close++] == '\n';
        if (close == size) {
          if (more) return std::nullopt;
          // The hunt for the close quote consumed the rest of the input.
          const std::string message = quoting_error("unterminated quoted field: ", text, size, i);
          begin_ = end_;
          next_line_ += breaks + 1;
          fail(message);
        }
        if (close + 1 < size && text[close + 1] == '"') {
          escapes = true;
          close += 2;
          continue;
        }
        break;
      }
      if (escapes) escaped_.push_back(fields_.size());
      fields_.emplace_back(text + i + 1, close - i - 1);
      i = close + 1;
      // After a closing quote: a comma, or the record's end with at most
      // one '\r' before it.
      if (i < size && text[i] == ',') {
        ++i;
        continue;
      }
      end = i < size && text[i] == '\r' ? i + 1 : i;
      if (end == size && more) return std::nullopt;
      if (end < size && !(stream && text[end] == '\n')) {
        fail(quoting_error("unexpected character after closing quote: ", text, size, i));
      }
      break;
    }
    std::size_t stop = i;
    while (stop < size && !stop_at[static_cast<unsigned char>(text[stop])]) ++stop;
    if (stop < size && text[stop] == ',') {
      fields_.emplace_back(text + i, stop - i);
      i = stop + 1;
      continue;
    }
    if (stop < size && text[stop] == '"') {
      fail(quoting_error("quote opening mid-field (quote the whole field): ", text, size, stop));
    }
    if (stop == size && more) return std::nullopt;
    const bool cr = stop > i && text[stop - 1] == '\r';
    fields_.emplace_back(text + i, stop - i - (cr ? 1 : 0));
    end = stop;
    break;
  }
  // The record parsed: consume it and its line break, then unescape its
  // quoted fields in place.
  begin_ += end < size ? end + 1 : size;
  next_line_ += breaks + 1;
  for (const std::size_t f : escaped_) {
    char* out = text + (fields_[f].data() - text);
    const char* in = fields_[f].data();
    const char* const last = in + fields_[f].size();
    char* const first = out;
    for (; in != last; in += *in == '"' ? 2 : 1) *out++ = *in;
    fields_[f] = std::string_view(first, static_cast<std::size_t>(out - first));
  }
  return end;
}

// ------------------------------------------------------------ dataset I/O ---

std::string escape_csv_field(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void close_or_throw(std::ofstream& out, const std::filesystem::path& path) {
  out.close();
  if (!out) throw CsvError("write failed for " + path.string());
}

namespace {

/// Up to NameTable::kBatch names copied out of a CsvReader, so that they
/// outlive its next call until one batch resolves them.
class NameBatch {
 public:
  [[nodiscard]] bool full() const noexcept { return size_ == core::NameTable::kBatch; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  void push(std::string_view name) {
    bytes_.append(name);
    ends_[size_++] = bytes_.size();
  }
  /// The names in push order; valid until the next push or clear.
  [[nodiscard]] std::span<const std::string_view> names() {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      views_[i] = std::string_view(bytes_).substr(begin, ends_[i] - begin);
      begin = ends_[i];
    }
    return {views_.data(), size_};
  }
  void clear() noexcept {
    bytes_.clear();
    size_ = 0;
  }

 private:
  std::string bytes_;
  std::size_t size_ = 0;
  std::array<std::size_t, core::NameTable::kBatch> ends_{};
  std::array<std::string_view, core::NameTable::kBatch> views_{};
};

/// Reads one edge file, resolving its (role, name) rows a batch at a time
/// through `add(roles, names)`.
template <typename Add>
void load_edges(const std::filesystem::path& path, std::string_view header, Add&& add) {
  NameBatch roles;
  NameBatch names;
  const auto flush = [&] {
    add(roles.names(), names.names());
    roles.clear();
    names.clear();
  };
  for_each_csv_row(path, header, [&](std::span<const std::string_view> fields, const CsvReader&) {
    roles.push(fields[0]);
    names.push(fields[1]);
    if (roles.full()) flush();
  });
  if (!roles.empty()) flush();
}

}  // namespace

core::RbacDataset load_dataset(const std::filesystem::path& dir) {
  // The three files are optional; the directory is not — a mistyped path
  // must not audit as an empty dataset.
  if (!std::filesystem::is_directory(dir)) {
    throw CsvError("dataset directory " + dir.string() + " does not exist or is not a directory");
  }
  core::RbacDataset data;

  // Each kind batches its own names, so every table still meets its names
  // in file order and ids are the first-appearance ids.
  constexpr std::array kKinds{core::NodeKind::kUser, core::NodeKind::kRole,
                              core::NodeKind::kPermission};
  std::array<NameBatch, kKinds.size()> entities;
  const auto flush = [&](std::size_t k) {
    data.add_entities(kKinds[k], entities[k].names());
    entities[k].clear();
  };
  for_each_csv_row(dir / "entities.csv", "kind,name",
                   [&](std::span<const std::string_view> fields, const CsvReader& reader) {
                     std::size_t k = 0;
                     while (k < kKinds.size() && fields[0] != core::to_string(kKinds[k])) ++k;
                     if (k == kKinds.size())
                       reader.fail("unknown entity kind '" + std::string(fields[0]) + "'");
                     entities[k].push(fields[1]);
                     if (entities[k].full()) flush(k);
                   });
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    if (!entities[k].empty()) flush(k);
  }

  load_edges(dir / "assignments.csv", "role,user", [&](auto roles, auto users) {
    data.assign_users(roles, users);
  });
  load_edges(dir / "grants.csv", "role,permission", [&](auto roles, auto perms) {
    data.grant_permissions(roles, perms);
  });
  return data;
}

void save_dataset(const core::RbacDataset& dataset, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const auto write = [](const std::filesystem::path& path, auto&& body) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw CsvError("cannot write " + path.string());
    body(out);
    close_or_throw(out, path);
  };

  write(dir / "entities.csv", [&](std::ofstream& out) {
    out << "kind,name\n";
    for (std::size_t u = 0; u < dataset.num_users(); ++u)
      out << "user," << escape_csv_field(dataset.user_name(static_cast<core::Id>(u))) << "\n";
    for (std::size_t r = 0; r < dataset.num_roles(); ++r)
      out << "role," << escape_csv_field(dataset.role_name(static_cast<core::Id>(r))) << "\n";
    for (std::size_t p = 0; p < dataset.num_permissions(); ++p)
      out << "permission,"
          << escape_csv_field(dataset.permission_name(static_cast<core::Id>(p))) << "\n";
  });
  write(dir / "assignments.csv", [&](std::ofstream& out) {
    out << "role,user\n";
    for (const auto& [role, user] : dataset.role_user_edges())
      out << escape_csv_field(dataset.role_name(role)) << ","
          << escape_csv_field(dataset.user_name(user)) << "\n";
  });
  write(dir / "grants.csv", [&](std::ofstream& out) {
    out << "role,permission\n";
    for (const auto& [role, perm] : dataset.role_permission_edges())
      out << escape_csv_field(dataset.role_name(role)) << ","
          << escape_csv_field(dataset.permission_name(perm)) << "\n";
  });
}

}  // namespace rolediet::io
