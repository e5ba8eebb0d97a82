#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "ecc/registry.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"

namespace gpuecc::bench {

namespace {

std::vector<std::string>
paperSchemeIds()
{
    std::vector<std::string> ids;
    for (const auto& scheme : paperSchemes())
        ids.push_back(scheme->id());
    return ids;
}

Result<std::uint64_t>
getUint(const sim::JsonValue& obj, const std::string& key)
{
    Result<const sim::JsonValue*> member = obj.get(key);
    if (!member.ok())
        return member.status();
    return member.value()->asUint64();
}

Result<std::string>
getString(const sim::JsonValue& obj, const std::string& key)
{
    Result<const sim::JsonValue*> member = obj.get(key);
    if (!member.ok())
        return member.status();
    return member.value()->asString();
}

/** Parse `section.cells` of reference.json into keyed counts. */
Result<CellCounts>
parseCells(const sim::JsonValue& root, const std::string& section,
           bool exhaustive)
{
    Result<const sim::JsonValue*> sec = root.get(section);
    if (!sec.ok())
        return sec.status();
    Result<const sim::JsonValue*> cells = sec.value()->get("cells");
    if (!cells.ok())
        return cells.status();
    CellCounts out;
    for (const sim::JsonValue& cell : cells.value()->elements()) {
        Result<std::string> scheme = getString(cell, "scheme");
        Result<std::string> pattern = getString(cell, "pattern");
        if (!scheme.ok())
            return scheme.status();
        if (!pattern.ok())
            return pattern.status();
        OutcomeCounts counts;
        counts.exhaustive = exhaustive;
        for (auto [key, slot] :
             {std::pair{"trials", &counts.trials},
              std::pair{"dce", &counts.dce}, std::pair{"due", &counts.due},
              std::pair{"sdc", &counts.sdc}}) {
            Result<std::uint64_t> v = getUint(cell, key);
            if (!v.ok())
                return v.status();
            *slot = v.value();
        }
        if (!counts.selfConsistent() || counts.trials == 0) {
            return Status::dataLoss("reference " + section + " cell " +
                                    scheme.value() + "/" + pattern.value() +
                                    " does not add up");
        }
        out[{scheme.value(), pattern.value()}] = counts;
    }
    return out;
}

/** |rate - reference rate| within 5 sigma + 5/n of a binomial draw. */
bool
rateAgrees(std::uint64_t events, std::uint64_t n, std::uint64_t ref_events,
           std::uint64_t ref_n)
{
    const double p = static_cast<double>(ref_events) / ref_n;
    const double sigma = std::sqrt(
        p * (1.0 - p) * (1.0 / static_cast<double>(n) + 1.0 / ref_n));
    const double rate = static_cast<double>(events) / n;
    return std::fabs(rate - p) <= 5.0 * sigma + 5.0 / n;
}

std::uint64_t
counterSum(const obs::MetricsSnapshot& metrics, const std::string& suffix)
{
    std::uint64_t sum = 0;
    for (const obs::CounterValue& c : metrics.counters) {
        if (c.name.size() >= suffix.size() &&
            c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                           suffix) == 0)
            sum += c.value;
    }
    return sum;
}

} // namespace

Result<Workload>
makeWorkload(const std::string& name, std::uint64_t seed,
             std::uint64_t scale)
{
    if (scale == 0)
        return Status::invalidArgument("scale must be positive");
    Workload w;
    w.name = name;
    sim::CampaignSpec& spec = w.spec;
    spec.seed = seed;
    spec.threads = 2;
    if (name == "tab2-exhaustive") {
        spec.scheme_ids = paperSchemeIds();
        spec.patterns = {ErrorPattern::oneBit, ErrorPattern::onePin,
                         ErrorPattern::oneByte, ErrorPattern::twoBits};
        if (scale == 1)
            spec.patterns.push_back(ErrorPattern::threeBits);
    } else if (name == "tab2-sampled") {
        spec.scheme_ids = paperSchemeIds();
        spec.patterns = {ErrorPattern::oneBeat, ErrorPattern::wholeEntry};
        spec.samples = 200000 / scale;
    } else if (name == "entry-tail") {
        spec.scheme_ids = {"ssc-dsd+"};
        spec.patterns = {ErrorPattern::wholeEntry};
        spec.samples = 2000000 / scale;
    } else if (name == "fleet-ckpt") {
        spec.scheme_ids = {"duet", "trio", "ssc-dsd+"};
        spec.patterns = {ErrorPattern::oneBeat, ErrorPattern::wholeEntry};
        spec.samples = 200000 / scale;
        spec.chunk = 1024;
        spec.threads = 1;
        spec.fleet_workers = 2;
        spec.fleet_unit_shards = 1;
        spec.checkpoint_interval_s = 0.0;
        w.checkpoint = true;
    } else {
        return Status::invalidArgument("unknown workload " + name);
    }
    return w;
}

Result<Reference>
loadReference(const std::string& path)
{
    Result<std::string> text = sim::loadTextFile(path);
    if (!text.ok())
        return text.status();
    Result<sim::JsonValue> doc = sim::parseJson(text.value());
    if (!doc.ok())
        return doc.status();
    Reference ref;
    Result<CellCounts> exhaustive =
        parseCells(doc.value(), "exhaustive", true);
    if (!exhaustive.ok())
        return exhaustive.status();
    Result<CellCounts> sampled = parseCells(doc.value(), "sampled", false);
    if (!sampled.ok())
        return sampled.status();
    ref.exhaustive = std::move(exhaustive).value();
    ref.sampled = std::move(sampled).value();
    return ref;
}

bool
sameCounts(const OutcomeCounts& a, const OutcomeCounts& b)
{
    return a.trials == b.trials && a.dce == b.dce && a.due == b.due &&
           a.sdc == b.sdc && a.exhaustive == b.exhaustive;
}

namespace {

/**
 * Failures found in one campaign of a workload (empty when correct):
 * the campaign must have run every cell without degradation, every
 * cell must be self-consistent, exhaustive cells must equal the frozen
 * counts, and sampled cells must hold exactly `samples` trials with
 * SDC and DUE rates within 5 sigma + 5/n of the reference.
 */
std::vector<std::string>
checkCampaign(const Workload& workload, const sim::CampaignResult& result,
              const Reference& reference)
{
    std::vector<std::string> failures;
    auto fail = [&](const std::string& what) {
        failures.push_back(workload.name + ": " + what);
    };
    if (result.interrupted)
        fail("campaign was interrupted");
    for (const sim::CampaignError& e : result.errors)
        fail("campaign degraded: " + e.scheme_id + ": " + e.message);
    const std::size_t expected =
        workload.spec.scheme_ids.size() * workload.spec.patterns.size();
    if (result.cells.size() != expected) {
        fail("expected " + std::to_string(expected) + " cells, got " +
             std::to_string(result.cells.size()));
    }
    for (const sim::CampaignCell& cell : result.cells) {
        const std::string label = patternInfo(cell.pattern).label;
        const std::string where = cell.scheme_id + "/" + label;
        const OutcomeCounts& c = cell.counts;
        if (!c.selfConsistent() || c.trials == 0) {
            fail(where + ": dce + due + sdc != trials");
            continue;
        }
        if (patternIsEnumerable(cell.pattern)) {
            auto it = reference.exhaustive.find({cell.scheme_id, label});
            if (it == reference.exhaustive.end()) {
                fail(where + ": no frozen exhaustive counts");
            } else if (!sameCounts(c, it->second)) {
                fail(where + ": exhaustive counts differ from the "
                             "frozen reference");
            }
            continue;
        }
        if (c.exhaustive || c.trials != workload.spec.samples) {
            fail(where + ": " + std::to_string(c.trials) +
                 " trials, expected " +
                 std::to_string(workload.spec.samples));
            continue;
        }
        auto it = reference.sampled.find({cell.scheme_id, label});
        if (it == reference.sampled.end()) {
            fail(where + ": no reference rates");
            continue;
        }
        const OutcomeCounts& r = it->second;
        if (!rateAgrees(c.sdc, c.trials, r.sdc, r.trials))
            fail(where + ": SDC rate outside 5 sigma + 5/n of reference");
        if (!rateAgrees(c.due, c.trials, r.due, r.trials))
            fail(where + ": DUE rate outside 5 sigma + 5/n of reference");
    }
    return failures;
}

/** Whether two campaigns hold identical cells (ids, patterns, counts). */
bool
sameCells(const sim::CampaignResult& a, const sim::CampaignResult& b)
{
    return std::equal(a.cells.begin(), a.cells.end(), b.cells.begin(),
                      b.cells.end(),
                      [](const sim::CampaignCell& x,
                         const sim::CampaignCell& y) {
                          return x.scheme_id == y.scheme_id &&
                                 x.pattern == y.pattern &&
                                 sameCounts(x.counts, y.counts);
                      });
}

/**
 * Operations the campaign retried or lost: shard retries, tasks of
 * failed cells, fleet requeues and poisoned units, and checkpoint
 * write failures.
 */
std::uint64_t
failedOperations(const sim::CampaignResult& result)
{
    std::uint64_t completed = 0;
    for (const char* name :
         {"campaign.shards_completed", "fleet.shards_completed"}) {
        if (const obs::CounterValue* c = result.metrics.findCounter(name))
            completed += c->value;
    }
    const std::uint64_t owed = result.shards - result.resumed_shards;
    return counterSum(result.metrics, "shard_retries") +
           counterSum(result.metrics, "checkpoint_failures") +
           result.fleet.requeues + result.fleet.units_poisoned +
           (owed > completed ? owed - completed : 0);
}

} // namespace

Result<CampaignRun>
runCampaign(const Workload& workload, const std::string& dir)
{
    sim::CampaignSpec spec = workload.spec;
    CampaignRun run;
    if (workload.checkpoint) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            return Status::ioError("cannot create " + dir + ": " +
                                   ec.message());
        }
        run.checkpoint_path = dir + "/checkpoint.json";
        spec.checkpoint_path = run.checkpoint_path;
    }
    const auto start = std::chrono::steady_clock::now();
    Result<sim::CampaignResult> result =
        sim::CampaignRunner(spec).tryRun();
    run.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    if (!result.ok())
        return result.status();
    run.result = std::move(result).value();
    return run;
}

void
RunLedger::record(const Workload& workload, const Reference& reference,
                  const sim::CampaignResult& result,
                  const sim::CampaignResult* first)
{
    for (std::string& f : checkCampaign(workload, result, reference))
        failures.push_back(std::move(f));
    if (first != nullptr && !sameCells(*first, result)) {
        fail(workload.name +
             ": campaign tallies differ from the run's first campaign");
    }
    attempted += result.shards;
    failed += failedOperations(result);
}

Result<CampaignRun>
runFirstCampaign(const Workload& workload, const Reference& reference,
                 RunLedger& ledger)
{
    Workload first = workload;
    first.spec.fleet_workers = 0;
    first.spec.threads = 2;
    first.checkpoint = false;
    Result<CampaignRun> run = runCampaign(first, "");
    if (!run.ok())
        ledger.fail(workload.name + ": " + run.status().toString());
    else
        ledger.record(first, reference, run.value().result, nullptr);
    return run;
}

} // namespace gpuecc::bench
