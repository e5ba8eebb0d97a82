/**
 * @file
 * Prometheus text exposition for campaign metrics.
 *
 * Pure rendering: dotted metric names ("fleet.units_settled") become
 * Prometheus-legal names ("gpuecc_fleet_units_settled"), and samples
 * that carry a host label render as one metric family per name with
 * a host label ("gpuecc_fleet_host_units{host=\"<label>\"}") so a
 * scrape can sum per-host unit counters across the fleet. Labels
 * arrive as data, never parsed out of a name, so any label — dotted
 * ones included — lands in the right family. No I/O and no registry
 * access here — the caller (the fleet's /metrics view) passes a
 * consistent sample set and this module only formats it, which is
 * what keeps the live endpoint incapable of perturbing campaign
 * determinism.
 */

#ifndef GPUECC_OBS_EXPOSITION_HPP
#define GPUECC_OBS_EXPOSITION_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace gpuecc::obs {

/** One counter sample under its dotted internal name. */
struct PromSample
{
    std::string name; //!< dotted, e.g. "fleet.host.units"
    std::uint64_t value = 0;
    /** Host label ("" = an unlabelled sample). */
    std::string host = {};
};

/**
 * A dotted name as a Prometheus metric name: prefixed "gpuecc_", dots
 * and every other illegal character mapped to '_'.
 */
std::string prometheusName(const std::string& dotted);

/**
 * Escape a label value per the exposition format (backslash, quote,
 * newline).
 */
std::string prometheusLabelValue(const std::string& value);

/**
 * Render samples as Prometheus text format (version 0.0.4). Samples
 * group into one family per name, each labelled host="<host>" when it
 * has one. Families keep first-appearance order; a
 * "# TYPE ... counter" header precedes each family.
 */
std::string
renderPrometheusText(const std::vector<PromSample>& samples);

} // namespace gpuecc::obs

#endif // GPUECC_OBS_EXPOSITION_HPP
