// ResultTable: the uniform output format of every experiment and bench.
//
// Each bench binary regenerates one paper figure/table by printing a
// ResultTable whose rows mirror the series the paper reports. Tables also
// serialise to CSV so results can be plotted externally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace snnfi::util {

/// A cell is either text or a number (printed with 4 decimals).
using Cell = std::variant<std::string, double>;

class ResultTable {
public:
    explicit ResultTable(std::string title, std::vector<std::string> columns);

    const std::string& title() const noexcept { return title_; }
    const std::vector<std::string>& columns() const noexcept { return columns_; }
    std::size_t num_rows() const noexcept { return rows_.size(); }
    std::size_t num_columns() const noexcept { return columns_.size(); }

    /// Appends a row; must match the column count.
    void add_row(std::vector<Cell> cells);

    /// Free-form caption lines printed under the title (workload parameters,
    /// paper reference values, notes).
    void add_note(std::string note) { notes_.push_back(std::move(note)); }
    const std::vector<std::string>& notes() const noexcept { return notes_; }

    const Cell& at(std::size_t row, std::size_t col) const;
    /// Numeric accessor; throws if the cell holds text.
    double number_at(std::size_t row, std::size_t col) const;
    /// Column values as doubles; throws on any text cell.
    std::vector<double> numeric_column(std::size_t col) const;

    /// Renders an aligned ASCII table.
    void print(std::ostream& os) const;
    std::string to_string() const;
    /// RFC-4180-ish CSV (quotes fields containing commas/quotes/newlines).
    std::string to_csv() const;
    /// JSON object: {"title","columns","notes","rows"}. Text cells become
    /// JSON strings, numeric cells full-precision JSON numbers (non-finite
    /// values map to null, keeping the document valid).
    std::string to_json() const;

private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<Cell>> rows_;
    std::vector<std::string> notes_;
};

std::ostream& operator<<(std::ostream& os, const ResultTable& table);

/// Escapes a string for embedding in a JSON document (no surrounding quotes).
std::string json_escape(const std::string& text);

/// Renders a double as a JSON value token (full precision; nan/inf -> null).
std::string json_number(double value);

// Field readers for the flat (single-level) JSON records the campaign
// directory holds: shard lines, manifest.json and heartbeats. Each returns
// the value of `key`, or std::nullopt when the key is missing or its value
// malformed. Values must be written exactly as json_escape/json_number and
// integer/bool streaming emit them: no surrounding whitespace, no sign on
// unsigned fields, finite numbers, \u escapes only in the ASCII range.
std::optional<std::string> json_get_string(std::string_view text,
                                           std::string_view key);
std::optional<std::size_t> json_get_size(std::string_view text,
                                         std::string_view key);
std::optional<std::int64_t> json_get_int64(std::string_view text,
                                           std::string_view key);
std::optional<double> json_get_double(std::string_view text,
                                      std::string_view key);
std::optional<bool> json_get_bool(std::string_view text, std::string_view key);

/// Parses RFC-4180-ish CSV (the dialect to_csv emits) back into fields.
/// Handles quoted fields containing commas, escaped quotes, and newlines.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

}  // namespace snnfi::util
