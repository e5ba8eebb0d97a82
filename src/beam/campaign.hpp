/**
 * @file
 * Orchestration of a full simulated beam-testing campaign.
 *
 * A campaign repeatedly runs the DRAM microbenchmark while the GPU
 * sits in the beam: soft-error events arrive as a Poisson process,
 * displacement damage accumulates with fluence, and everything lands
 * in the mismatch log for post-processing. The campaign also exposes
 * the three intermittent-error experiments of Section 4: the refresh
 * sweep (Figure 3a), the retention-time fit (Figure 3b, via
 * fitNormalCdf), and the weak-cell accumulation curve (Figure 3c).
 */

#ifndef GPUECC_BEAM_CAMPAIGN_HPP
#define GPUECC_BEAM_CAMPAIGN_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "beam/config.hpp"
#include "beam/damage.hpp"
#include "beam/events.hpp"
#include "beam/microbenchmark.hpp"
#include "hbm2/device.hpp"

namespace gpuecc {
namespace beam {

/**
 * Most microbenchmark runs a campaign may ask for. A campaign keeps an
 * accumulation sample per run and every logged mismatch, so the run
 * count bounds its memory; this is over a thousand times the benches'
 * defaults (200-800 runs).
 */
constexpr int kMaxRuns = 1000000;

/** Everything needed to run one campaign. */
struct CampaignConfig
{
    BeamConfig beam;
    DamageConfig damage;
    EventConfig events;
    MicrobenchConfig micro;
    int stacks = hbm2::default_stacks; //!< 8 stacks = 32GB GPU
    int runs = 200;                    //!< microbenchmark runs
    std::uint64_t seed = 0xBEA3;
};

/** One (fluence, visible weak cells) accumulation sample. */
struct AccumulationSample
{
    double fluence_n_cm2;
    std::uint64_t visible_weak_cells;
};

/** A simulated beam-testing campaign on one GPU. */
class Campaign
{
  public:
    explicit Campaign(const CampaignConfig& config);

    const CampaignConfig& config() const { return config_; }
    hbm2::Device& device() { return device_; }
    const hbm2::Device& device() const { return device_; }
    DamageModel& damage() { return damage_; }

    /** Total beam fluence absorbed so far. */
    double fluence() const { return fluence_; }

    /** Campaign wall clock in seconds. */
    double timeSeconds() const { return time_s_; }

    /**
     * Run the configured number of microbenchmark runs in the beam,
     * accumulating damage and the mismatch log.
     */
    void runInBeam();

    /** The full mismatch log. */
    const std::vector<LogRecord>& log() const { return log_; }

    /** The per-run weak-cell accumulation curve (Figure 3c). */
    const std::vector<AccumulationSample>& accumulation() const
    {
        return accumulation_;
    }

    /**
     * Count weak cells visible at each refresh period on the (now
     * damaged) GPU outside the beam - the Figure 3a experiment.
     */
    std::vector<std::pair<double, std::uint64_t>>
    refreshSweep(const std::vector<double>& periods_ms) const;

    /** Number of weak cells with retention below the period. */
    std::uint64_t visibleWeakCells(double refresh_ms) const;

    /**
     * Expose the GPU without running the microbenchmark (used to
     * damage a device heavily before the refresh sweep).
     */
    void soak(double fluence_n_cm2);

    /** Let the GPU anneal outside the beam for the given hours. */
    void annealOutsideBeam(double hours);

  private:
    CampaignConfig config_;
    hbm2::Device device_;
    DamageModel damage_;
    EventGenerator events_;
    Microbenchmark micro_;
    Rng rng_;
    double fluence_ = 0.0;
    double time_s_ = 0.0;
    std::vector<LogRecord> log_;
    std::vector<AccumulationSample> accumulation_;
};

} // namespace beam
} // namespace gpuecc

#endif // GPUECC_BEAM_CAMPAIGN_HPP
