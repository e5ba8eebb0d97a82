/**
 * @file
 * The common campaign CLI surface.
 *
 * Every evaluation bench and example accepts the same knobs —
 * --samples, --seed, --threads, --chunk, --json, --csv, the fleet
 * flags --fleet-workers and --fleet-unit, the resilience flags
 * --checkpoint, --resume, --checkpoint-interval,
 * and the telemetry flags --trace, --progress, --quiet — declared
 * and decoded here so the tools stay flag-compatible and new tools
 * get the full surface for free.
 */

#ifndef GPUECC_SIM_CLI_HPP
#define GPUECC_SIM_CLI_HPP

#include <string>

#include "common/cli.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::sim {

/**
 * Declare the shared campaign flags on a Cli.
 *
 * @param default_samples default for --samples (tool-specific)
 */
void addCampaignFlags(Cli& cli,
                      const std::string& default_samples = "200000");

/**
 * Build a spec from the shared flags (scheme ids and patterns are
 * tool-specific and left empty for the caller to fill in). Every
 * integer flag is range-checked first: a value out of range is fatal,
 * naming the flag and its bounds. Maps
 * --progress/--quiet onto spec.progress (--quiet wins; the default
 * auto-enables the live line on a TTY) and starts trace collection
 * when --trace names a file.
 */
CampaignSpec campaignSpecFromCli(const Cli& cli);

/**
 * Honor --json/--csv: write the campaign artifacts to the requested
 * paths (no-ops when the flags are unset). An unwritable path or a
 * short write is an ioError, never a silently truncated artifact.
 */
Status emitCampaignArtifacts(const CampaignResult& result,
                             const Cli& cli);

/**
 * Standard campaign epilogue: report recorded scheme errors, write
 * the artifacts, flush the trace started by --trace (on interrupted
 * runs too — a partial trace is still viewable), and map the outcome
 * to a process exit code — 130 (interrupted; artifacts are skipped,
 * the checkpoint holds the progress), 1 (artifact or trace write
 * failed), 0 otherwise. Intended as
 * `return sim::finalizeCampaign(result, cli);` from main().
 */
int finalizeCampaign(const CampaignResult& result, const Cli& cli);

} // namespace gpuecc::sim

#endif // GPUECC_SIM_CLI_HPP
