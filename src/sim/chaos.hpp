/**
 * @file
 * Deterministic chaos / failure injection for the campaign engine.
 *
 * The resilience machinery (checkpoint/resume, shard retry, graceful
 * scheme skip) is only trustworthy if its failure paths are exercised,
 * so the runner and the checkpoint writer call tiny hooks that are
 * no-ops in production and inject faults when armed — either
 * programmatically (tests) or via the GPUECC_CHAOS environment
 * variable (CI):
 *
 *   GPUECC_CHAOS="task_fault=7,task_fault_count=2,kill_after=40,ckpt_fail=1"
 *
 *   task_fault=I        throw from shard task with plan index I
 *   task_fault_count=N  fail the first N attempts of that task
 *                       (default 1: the retry succeeds)
 *   kill_after=N        request a clean interrupt once N tasks have
 *                       completed (a simulated SIGTERM)
 *   ckpt_fail=N         fail the next N checkpoint writes
 *   fleet_exit_worker=W fleet worker index W self-kills (_exit) ...
 *   fleet_exit_after=N  ... when it starts its (N+1)-th work unit
 *                       (default 0: dies on its first unit)
 *   fleet_exit_unit=U   any worker self-kills when it starts work
 *                       unit U ...
 *   fleet_exit_unit_count=N
 *                       ... for the first N starts in this process
 *                       (default 1: the requeue lands elsewhere;
 *                       -1: every host the unit touches dies — the
 *                       poison-unit scenario)
 *   fleet_stall_worker=W / fleet_stall_after=N
 *                       like fleet_exit_worker/after, but the worker
 *                       hangs forever (heartbeats stop) instead of
 *                       dying — the silent-host scenario
 *   fleet_stall_unit=U  any worker hangs when it starts unit U
 *
 * All triggers count events, never wall-clock or randomness, so a
 * chaos scenario reproduces exactly.
 */

#ifndef GPUECC_SIM_CHAOS_HPP
#define GPUECC_SIM_CHAOS_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/status.hpp"

namespace gpuecc::sim {

/** Which faults to inject; the default injects nothing. */
struct ChaosSpec
{
    /** Plan index of the shard task to throw from; -1 = never. */
    std::int64_t task_fault = -1;
    /** Number of attempts of that task to fail (1 = retry succeeds). */
    int task_fault_count = 1;
    /** Completed-task count that triggers an interrupt; -1 = never. */
    std::int64_t kill_after = -1;
    /** Number of upcoming checkpoint writes to fail. */
    int ckpt_fail = 0;
    /** Fleet worker index that self-kills mid-run; -1 = never. */
    std::int64_t fleet_exit_worker = -1;
    /** Units that worker completes before dying on the next one. */
    std::int64_t fleet_exit_after = 0;
    /** Work unit whose start kills its host; -1 = never. */
    std::int64_t fleet_exit_unit = -1;
    /** Starts of that unit (per process) that die; -1 = all of them. */
    int fleet_exit_unit_count = 1;
    /** Fleet worker index that hangs (silently) mid-run; -1 = never. */
    std::int64_t fleet_stall_worker = -1;
    /** Units that worker completes before hanging on the next one. */
    std::int64_t fleet_stall_after = 0;
    /** Work unit whose start hangs its host; -1 = never. */
    std::int64_t fleet_stall_unit = -1;
};

/** The exception an armed task_fault raises inside a shard task. */
class ChaosTaskFault : public std::runtime_error
{
  public:
    explicit ChaosTaskFault(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Parse a GPUECC_CHAOS-style "key=value,key=value" spec. Unknown keys
 * and non-numeric values are invalidArgument errors.
 */
Result<ChaosSpec> parseChaosSpec(const std::string& text);

/** Arm the harness (resets all trigger counters). */
void setChaosSpec(const ChaosSpec& spec);

/** Disarm the harness (tests; also resets counters). */
void clearChaosSpec();

/**
 * Whether any fault is armed. The first call reads GPUECC_CHAOS from
 * the environment (fatal if it doesn't parse — a user error).
 */
bool chaosActive();

/**
 * Runner hook: called before evaluating the shard task with the given
 * plan index. Throws ChaosTaskFault while that task's failure budget
 * lasts.
 */
void chaosOnTaskAttempt(std::uint64_t plan_index);

/**
 * Runner hook: called after each task completes with the completed
 * total so far; requests a clean interrupt at the kill-point.
 */
void chaosOnTaskDone(std::uint64_t completed_total);

/**
 * Checkpoint hook: ok in production; an ioError while the armed
 * ckpt_fail budget lasts.
 */
Status chaosOnCheckpointWrite();

/** Exit code of a chaos-killed fleet worker (looks like a crash). */
constexpr int kChaosFleetExitCode = 77;

/**
 * Fleet worker hook: called when worker @p worker starts work unit
 * @p unit, with the number of units it completed before this one.
 * _exit()s the process (simulating a mid-campaign worker crash — no
 * result, no cleanup) when an armed exit trigger matches: either
 * (fleet_exit_worker, fleet_exit_after) targeting a worker index, or
 * (fleet_exit_unit, fleet_exit_unit_count) targeting the unit itself
 * — the latter is how a poison unit "kills every worker it lands on".
 * An armed stall trigger (fleet_stall_worker/after, fleet_stall_unit)
 * instead parks the calling thread forever after raising the stalled
 * flag (chaosStalled), simulating a hung-but-alive host whose
 * heartbeats go silent. Forked workers inherit the parent's armed
 * spec, so tests arm it in-process before forking.
 */
void chaosOnFleetUnitStart(int worker, std::uint64_t unit,
                           std::uint64_t units_completed);

/**
 * Whether a stall trigger has fired in this process. Heartbeat
 * threads poll it so a chaos-stalled host goes silent on its pipe,
 * not just idle.
 */
bool chaosStalled();

} // namespace gpuecc::sim

#endif // GPUECC_SIM_CHAOS_HPP
