#include "sim/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/interrupt.hpp"
#include "common/log.hpp"

namespace gpuecc::sim {

namespace {

/** Armed spec plus live countdown counters. */
struct ChaosState
{
    ChaosSpec spec;
    std::atomic<int> task_faults_left{0};
    std::atomic<int> ckpt_fails_left{0};
    std::atomic<bool> killed{false};
    /** Remaining unit-targeted kills; <0 means unlimited (poison). */
    std::atomic<int> exit_unit_left{0};
    std::atomic<bool> stalled{false};
    bool active = false;
};

ChaosState&
state()
{
    static ChaosState s;
    return s;
}

std::once_flag env_once;

/** First-use read of GPUECC_CHAOS (mirrors GPUECC_REFERENCE_CODEC). */
void
initFromEnvironment()
{
    std::call_once(env_once, [] {
        const char* env = std::getenv("GPUECC_CHAOS");
        if (env == nullptr || *env == '\0')
            return;
        Result<ChaosSpec> parsed = parseChaosSpec(env);
        if (!parsed.ok())
            fatal("GPUECC_CHAOS: " + parsed.status().toString());
        setChaosSpec(parsed.value());
        warn(std::string("chaos harness armed: GPUECC_CHAOS=") + env);
    });
}

Result<std::int64_t>
parseChaosInt(const std::string& key, const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 0);
    if (text.empty() || errno == ERANGE ||
        end != text.c_str() + text.size()) {
        return Status::invalidArgument("chaos key '" + key +
                                       "': bad number '" + text + "'");
    }
    return static_cast<std::int64_t>(v);
}

} // namespace

Result<ChaosSpec>
parseChaosSpec(const std::string& text)
{
    ChaosSpec spec;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        const std::string item = text.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            return Status::invalidArgument(
                "chaos item '" + item + "' is not key=value");
        }
        const std::string key = item.substr(0, eq);
        Result<std::int64_t> value =
            parseChaosInt(key, item.substr(eq + 1));
        if (!value.ok())
            return value.status();
        if (key == "task_fault") {
            spec.task_fault = value.value();
        } else if (key == "task_fault_count") {
            spec.task_fault_count = static_cast<int>(value.value());
        } else if (key == "kill_after") {
            spec.kill_after = value.value();
        } else if (key == "ckpt_fail") {
            spec.ckpt_fail = static_cast<int>(value.value());
        } else if (key == "fleet_exit_worker") {
            spec.fleet_exit_worker = value.value();
        } else if (key == "fleet_exit_after") {
            spec.fleet_exit_after = value.value();
        } else if (key == "fleet_exit_unit") {
            spec.fleet_exit_unit = value.value();
        } else if (key == "fleet_exit_unit_count") {
            spec.fleet_exit_unit_count = static_cast<int>(value.value());
        } else if (key == "fleet_stall_worker") {
            spec.fleet_stall_worker = value.value();
        } else if (key == "fleet_stall_after") {
            spec.fleet_stall_after = value.value();
        } else if (key == "fleet_stall_unit") {
            spec.fleet_stall_unit = value.value();
        } else {
            return Status::invalidArgument("unknown chaos key '" + key +
                                           "'");
        }
    }
    return spec;
}

void
setChaosSpec(const ChaosSpec& spec)
{
    ChaosState& s = state();
    s.spec = spec;
    s.task_faults_left.store(
        spec.task_fault >= 0 ? spec.task_fault_count : 0,
        std::memory_order_relaxed);
    s.ckpt_fails_left.store(spec.ckpt_fail, std::memory_order_relaxed);
    s.killed.store(false, std::memory_order_relaxed);
    s.exit_unit_left.store(
        spec.fleet_exit_unit >= 0 ? spec.fleet_exit_unit_count : 0,
        std::memory_order_relaxed);
    s.stalled.store(false, std::memory_order_relaxed);
    s.active = true;
}

void
clearChaosSpec()
{
    setChaosSpec(ChaosSpec{});
    state().active = false;
}

bool
chaosActive()
{
    initFromEnvironment();
    return state().active;
}

void
chaosOnTaskAttempt(std::uint64_t plan_index)
{
    if (!chaosActive())
        return;
    ChaosState& s = state();
    if (s.spec.task_fault < 0 ||
        plan_index != static_cast<std::uint64_t>(s.spec.task_fault))
        return;
    // Decrement the budget; attempts beyond it succeed (the retry
    // path) so task_fault_count=1 models a transient fault and >=2 a
    // persistent one.
    int left = s.task_faults_left.load(std::memory_order_relaxed);
    while (left > 0) {
        if (s.task_faults_left.compare_exchange_weak(
                left, left - 1, std::memory_order_relaxed)) {
            throw ChaosTaskFault(
                "chaos: injected fault in shard task " +
                std::to_string(plan_index));
        }
    }
}

void
chaosOnTaskDone(std::uint64_t completed_total)
{
    if (!chaosActive())
        return;
    ChaosState& s = state();
    if (s.spec.kill_after < 0 ||
        completed_total <
            static_cast<std::uint64_t>(s.spec.kill_after))
        return;
    if (!s.killed.exchange(true, std::memory_order_relaxed)) {
        warn("chaos: kill-point reached after " +
             std::to_string(completed_total) +
             " tasks; requesting interrupt");
        requestInterrupt();
    }
}

namespace {

/** Park the calling thread forever: the silent-host scenario. */
[[noreturn]] void
chaosStallForever(const std::string& why)
{
    warn("chaos: " + why + "; stalling forever");
    state().stalled.store(true, std::memory_order_relaxed);
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(3600));
}

} // namespace

void
chaosOnFleetUnitStart(int worker, std::uint64_t unit,
                      std::uint64_t units_completed)
{
    if (!chaosActive())
        return;
    ChaosState& s = state();
    if (s.spec.fleet_exit_unit >= 0 &&
        unit == static_cast<std::uint64_t>(s.spec.fleet_exit_unit)) {
        // Budget <0 = unlimited: the poison unit kills every host it
        // ever lands on. Otherwise decrement; starts past the budget
        // proceed normally (the requeue succeeds elsewhere).
        bool fire = s.spec.fleet_exit_unit_count < 0;
        if (!fire) {
            int left = s.exit_unit_left.load(std::memory_order_relaxed);
            while (left > 0 && !fire) {
                fire = s.exit_unit_left.compare_exchange_weak(
                    left, left - 1, std::memory_order_relaxed);
            }
        }
        if (fire) {
            warn("chaos: host self-killing on start of unit " +
                 std::to_string(unit));
            std::_Exit(kChaosFleetExitCode);
        }
    }
    if (s.spec.fleet_stall_unit >= 0 &&
        unit == static_cast<std::uint64_t>(s.spec.fleet_stall_unit)) {
        chaosStallForever("host hanging on start of unit " +
                          std::to_string(unit));
    }
    if (s.spec.fleet_stall_worker >= 0 &&
        worker == static_cast<int>(s.spec.fleet_stall_worker) &&
        units_completed >=
            static_cast<std::uint64_t>(std::max<std::int64_t>(
                0, s.spec.fleet_stall_after))) {
        chaosStallForever("fleet worker " + std::to_string(worker) +
                          " hanging after " +
                          std::to_string(units_completed) + " units");
    }
    if (s.spec.fleet_exit_worker < 0 ||
        worker != static_cast<int>(s.spec.fleet_exit_worker))
        return;
    if (units_completed <
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, s.spec.fleet_exit_after)))
        return;
    // A real crash, not a clean shutdown: no result line, no exit
    // handlers — the parent sees EOF mid-protocol and must requeue.
    warn("chaos: fleet worker " + std::to_string(worker) +
         " self-killing after " + std::to_string(units_completed) +
         " units");
    std::_Exit(kChaosFleetExitCode);
}

bool
chaosStalled()
{
    return chaosActive() &&
           state().stalled.load(std::memory_order_relaxed);
}

Status
chaosOnCheckpointWrite()
{
    if (!chaosActive())
        return {};
    ChaosState& s = state();
    int left = s.ckpt_fails_left.load(std::memory_order_relaxed);
    while (left > 0) {
        if (s.ckpt_fails_left.compare_exchange_weak(
                left, left - 1, std::memory_order_relaxed)) {
            return Status::ioError(
                "chaos: injected checkpoint write failure");
        }
    }
    return {};
}

} // namespace gpuecc::sim
