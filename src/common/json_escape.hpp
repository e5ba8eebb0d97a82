/**
 * @file
 * The one JSON string escaper: reports, wire lines, the event journal
 * and trace files all escape through it.
 */

#ifndef GPUECC_COMMON_JSON_ESCAPE_HPP
#define GPUECC_COMMON_JSON_ESCAPE_HPP

#include <cstdio>
#include <string>
#include <string_view>

namespace gpuecc {

/**
 * Append @p text to @p out as the inside of a JSON string: quote,
 * backslash, newline and tab get their short escapes, every other
 * control byte (carriage return included) a \\u00XX escape, and all
 * other bytes pass through unchanged. The form is part of the
 * report, checkpoint and wire-line bytes, so it stays fixed.
 */
inline void
appendJsonEscaped(std::string& out, std::string_view text)
{
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

/** @p text escaped as the inside of a JSON string. */
inline std::string
jsonEscaped(std::string_view text)
{
    std::string out;
    out.reserve(text.size() + 2);
    appendJsonEscaped(out, text);
    return out;
}

} // namespace gpuecc

#endif // GPUECC_COMMON_JSON_ESCAPE_HPP
