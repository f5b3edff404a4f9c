#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace snnfi::util {

ResultTable::ResultTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
    if (columns_.empty()) throw std::invalid_argument("ResultTable: no columns");
}

void ResultTable::add_row(std::vector<Cell> cells) {
    if (cells.size() != columns_.size())
        throw std::invalid_argument("ResultTable::add_row: wrong cell count");
    rows_.push_back(std::move(cells));
}

const Cell& ResultTable::at(std::size_t row, std::size_t col) const {
    if (row >= rows_.size() || col >= columns_.size())
        throw std::out_of_range("ResultTable::at: out of range");
    return rows_[row][col];
}

double ResultTable::number_at(std::size_t row, std::size_t col) const {
    const Cell& cell = at(row, col);
    if (const double* value = std::get_if<double>(&cell)) return *value;
    throw std::invalid_argument("ResultTable::number_at: cell holds text");
}

std::vector<double> ResultTable::numeric_column(std::size_t col) const {
    std::vector<double> values;
    values.reserve(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) values.push_back(number_at(r, col));
    return values;
}

namespace {

std::string format_cell(const Cell& cell) {
    if (const std::string* text = std::get_if<std::string>(&cell)) return *text;
    std::ostringstream os;
    os << std::fixed << std::setprecision(4) << std::get<double>(cell);
    return os.str();
}

std::string csv_escape(const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string escaped = "\"";
    for (char c : field) {
        if (c == '"') escaped += '"';
        escaped += c;
    }
    escaped += '"';
    return escaped;
}

}  // namespace

void ResultTable::print(std::ostream& os) const {
    // Pre-render all cells to compute column widths.
    std::vector<std::vector<std::string>> rendered;
    rendered.reserve(rows_.size());
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (std::size_t c = 0; c < row.size(); ++c) {
            cells.push_back(format_cell(row[c]));
            widths[c] = std::max(widths[c], cells.back().size());
        }
        rendered.push_back(std::move(cells));
    }

    os << "== " << title_ << " ==\n";
    for (const auto& note : notes_) os << "   " << note << "\n";
    auto print_rule = [&] {
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            os << "+" << std::string(widths[c] + 2, '-');
        }
        os << "+\n";
    };
    print_rule();
    os << "|";
    for (std::size_t c = 0; c < columns_.size(); ++c)
        os << " " << std::setw(static_cast<int>(widths[c])) << std::left << columns_[c] << " |";
    os << "\n";
    print_rule();
    for (const auto& cells : rendered) {
        os << "|";
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << " " << std::setw(static_cast<int>(widths[c])) << std::right << cells[c] << " |";
        os << "\n";
    }
    print_rule();
}

std::string ResultTable::to_string() const {
    std::ostringstream os;
    print(os);
    return os.str();
}

std::string ResultTable::to_csv() const {
    std::ostringstream os;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (c) os << ",";
        os << csv_escape(columns_[c]);
    }
    os << "\n";
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c) os << ",";
            os << csv_escape(format_cell(row[c]));
        }
        os << "\n";
    }
    return os.str();
}

std::string json_escape(const std::string& text) {
    std::string escaped;
    escaped.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '"': escaped += "\\\""; break;
            case '\\': escaped += "\\\\"; break;
            case '\n': escaped += "\\n"; break;
            case '\r': escaped += "\\r"; break;
            case '\t': escaped += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    escaped += buffer;
                } else {
                    escaped += c;
                }
        }
    }
    return escaped;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

namespace {

/// Offset just past `"key":` in `text`. Keys are unique in a record, and
/// every quote inside an escaped value follows a backslash, so no value
/// can hold the needle: the first hit is the field.
std::optional<std::size_t> find_key(std::string_view text, std::string_view key) {
    std::string needle;
    needle.reserve(key.size() + 3);
    needle += '"';
    needle += key;
    needle += "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string_view::npos) return std::nullopt;
    return at + needle.size();
}

/// The raw value token of a non-string field: up to the next ',' or '}'.
std::optional<std::string_view> get_token(std::string_view text,
                                          std::string_view key) {
    const auto start = find_key(text, key);
    if (!start) return std::nullopt;
    const std::size_t end = text.find_first_of(",}", *start);
    if (end == *start || end == std::string_view::npos) return std::nullopt;
    return text.substr(*start, end - *start);
}

/// Parses the whole token as a T, or std::nullopt. from_chars accepts no
/// whitespace, no '+', and no '-' for unsigned T.
template <typename T>
std::optional<T> parse_token(std::optional<std::string_view> token) {
    if (!token) return std::nullopt;
    T value{};
    const char* end = token->data() + token->size();
    const auto [ptr, ec] = std::from_chars(token->data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

}  // namespace

std::optional<std::string> json_get_string(std::string_view text,
                                           std::string_view key) {
    const auto start = find_key(text, key);
    if (!start || *start >= text.size() || text[*start] != '"')
        return std::nullopt;
    std::string value;
    for (std::size_t i = *start + 1; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '"') return value;
        if (c != '\\') {
            value += c;
            continue;
        }
        if (++i >= text.size()) return std::nullopt;
        switch (text[i]) {
            case '"': value += '"'; break;
            case '\\': value += '\\'; break;
            case '/': value += '/'; break;
            case 'n': value += '\n'; break;
            case 'r': value += '\r'; break;
            case 't': value += '\t'; break;
            case 'u': {
                // json_escape emits \u00XX for control bytes only.
                if (i + 4 >= text.size()) return std::nullopt;
                unsigned code = 0;
                const char* digits = text.data() + i + 1;
                const auto [ptr, ec] = std::from_chars(digits, digits + 4, code, 16);
                if (ec != std::errc{} || ptr != digits + 4 || code > 0x7F)
                    return std::nullopt;
                value += static_cast<char>(code);
                i += 4;
                break;
            }
            default: return std::nullopt;
        }
    }
    return std::nullopt;  // unterminated string
}

std::optional<std::size_t> json_get_size(std::string_view text,
                                         std::string_view key) {
    return parse_token<std::size_t>(get_token(text, key));
}

std::optional<std::int64_t> json_get_int64(std::string_view text,
                                           std::string_view key) {
    return parse_token<std::int64_t>(get_token(text, key));
}

std::optional<double> json_get_double(std::string_view text,
                                      std::string_view key) {
    const auto value = parse_token<double>(get_token(text, key));
    if (!value || !std::isfinite(*value)) return std::nullopt;  // json_number writes null
    return value;
}

std::optional<bool> json_get_bool(std::string_view text, std::string_view key) {
    const auto token = get_token(text, key);
    if (token == "true") return true;
    if (token == "false") return false;
    return std::nullopt;
}

std::string ResultTable::to_json() const {
    std::ostringstream os;
    os << "{\"title\":\"" << json_escape(title_) << "\",\"columns\":[";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        if (c) os << ",";
        os << "\"" << json_escape(columns_[c]) << "\"";
    }
    os << "],\"notes\":[";
    for (std::size_t n = 0; n < notes_.size(); ++n) {
        if (n) os << ",";
        os << "\"" << json_escape(notes_[n]) << "\"";
    }
    os << "],\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (r) os << ",";
        os << "[";
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            if (c) os << ",";
            if (const std::string* text = std::get_if<std::string>(&rows_[r][c]))
                os << "\"" << json_escape(*text) << "\"";
            else
                os << json_number(std::get<double>(rows_[r][c]));
        }
        os << "]";
    }
    os << "]}";
    return os.str();
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
    std::vector<std::vector<std::string>> records;
    std::vector<std::string> record;
    std::string field;
    bool quoted = false;
    bool field_started = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
        } else if (c == '"' && field.empty() && !field_started) {
            quoted = true;
            field_started = true;
        } else if (c == ',') {
            record.push_back(std::move(field));
            field.clear();
            field_started = false;
        } else if (c == '\n') {
            record.push_back(std::move(field));
            field.clear();
            field_started = false;
            records.push_back(std::move(record));
            record.clear();
        } else if (c != '\r') {
            field += c;
            field_started = true;
        }
    }
    if (field_started || !field.empty() || !record.empty()) {
        record.push_back(std::move(field));
        records.push_back(std::move(record));
    }
    return records;
}

std::ostream& operator<<(std::ostream& os, const ResultTable& table) {
    table.print(os);
    return os;
}

}  // namespace snnfi::util
