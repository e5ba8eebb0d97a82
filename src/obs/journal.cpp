#include "obs/journal.hpp"

#include <cerrno>
#include <cstring>

#include "common/json_escape.hpp"
#include "common/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace gpuecc::obs {

Result<std::unique_ptr<EventJournal>>
EventJournal::open(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        return Status::ioError("journal: cannot open " + path + ": " +
                               std::strerror(errno));
    }
    auto journal = std::unique_ptr<EventJournal>(new EventJournal());
    journal->path_ = path;
    journal->file_ = file;
    journal->origin_ = std::chrono::steady_clock::now();
    return journal;
}

EventJournal::~EventJournal()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr)
        std::fclose(file_);
}

void
EventJournal::append(const std::string& event, const Fields& fields,
                     const Nums& nums)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr || failed_)
        return;
    const std::uint64_t ts_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());

    std::string line = "{\"v\":" + std::to_string(kJournalVersion) +
                       ",\"seq\":" + std::to_string(seq_ + 1) +
                       ",\"ts_us\":" + std::to_string(ts_us) +
                       ",\"event\":\"" + jsonEscaped(event) + "\"";
    for (const auto& [k, v] : fields)
        line += ",\"" + jsonEscaped(k) + "\":\"" + jsonEscaped(v) + "\"";
    for (const auto& [k, v] : nums)
        line += ",\"" + jsonEscaped(k) + "\":" + std::to_string(v);
    line += "}\n";

    // Write-through: the same durability discipline the checkpoint
    // writer follows, applied to an append-only stream — flush to the
    // kernel, then fsync to stable storage, before admitting the next
    // event. A failure disables the journal instead of the campaign.
    bool ok = std::fwrite(line.data(), 1, line.size(), file_) ==
                  line.size() &&
              std::fflush(file_) == 0;
#if defined(__unix__) || defined(__APPLE__)
    ok = ok && ::fsync(::fileno(file_)) == 0;
#endif
    if (!ok) {
        failed_ = true;
        warn("journal: write to " + path_ +
             " failed; journaling disabled for the rest of the run");
        return;
    }
    ++seq_;
}

std::uint64_t
EventJournal::eventsWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

} // namespace gpuecc::obs
