#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/json_escape.hpp"

namespace gpuecc::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct Event
{
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
    std::string args;
    /** kCallerTid = use the owning buffer's tid. */
    int tid = kCallerTid;
};

/** One thread's event buffer; appended under its own mutex. */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<Event> events;
    int tid = 0;
};

struct TraceState
{
    std::mutex mutex;
    std::string path;
    Clock::time_point origin;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::map<int, std::string> track_names;
    int next_tid = 1;
};

/** Fast-path gate read by every span without locking. */
std::atomic<bool> g_enabled{false};

TraceState&
state()
{
    // Leaked: worker thread_locals may outlive main's statics.
    static TraceState* s = new TraceState;
    return *s;
}

ThreadBuffer&
bufferForThread()
{
    thread_local std::shared_ptr<ThreadBuffer> tls;
    if (!tls) {
        tls = std::make_shared<ThreadBuffer>();
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        tls->tid = s.next_tid++;
        s.buffers.push_back(tls);
    }
    return *tls;
}

void
record(Event event)
{
    ThreadBuffer& buf = bufferForThread();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(std::move(event));
}

void
appendMetaEvent(std::string& out, int pid, int tid,
                const std::string& name, bool& first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    appendJsonEscaped(out, name);
    out += "\"}}";
}

void
appendCompleteEvent(std::string& out, int pid, int tid,
                    const Event& event, bool& first)
{
    if (!first)
        out += ",\n";
    first = false;
    out += "{\"ph\":\"X\",\"name\":\"";
    appendJsonEscaped(out, event.name);
    out += "\",\"cat\":\"";
    appendJsonEscaped(out, event.category);
    out += "\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"ts\":";
    out += std::to_string(event.ts_us);
    out += ",\"dur\":";
    out += std::to_string(event.dur_us);
    if (!event.args.empty()) {
        out += ",\"args\":{";
        out += event.args; // pre-encoded object body
        out += "}";
    }
    out += "}";
}

void
appendArg(std::string& args, const char* key,
          const std::string& encoded_value)
{
    if (!args.empty())
        args += ",";
    args += "\"";
    args += key;
    args += "\":";
    args += encoded_value;
}

} // namespace

void
startTrace(const std::string& path)
{
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.path = path;
    s.origin = Clock::now();
    s.track_names.clear();
    for (const auto& buf : s.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        buf->events.clear();
    }
    g_enabled.store(true, std::memory_order_release);
}

bool
traceEnabled()
{
    return g_enabled.load(std::memory_order_acquire);
}

const std::string&
tracePath()
{
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.path;
}

std::uint64_t
traceNowUs()
{
    if (!traceEnabled())
        return 0;
    const Clock::time_point origin = [] {
        TraceState& s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        return s.origin;
    }();
    const auto delta = Clock::now() - origin;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(delta)
            .count());
}

void
emitSpan(const std::string& name, const char* category,
         std::uint64_t ts_us, std::uint64_t dur_us,
         const std::string& args_json, int tid)
{
    if (!traceEnabled())
        return;
    Event event;
    event.name = name;
    event.category = category;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.args = args_json;
    event.tid = tid;
    record(std::move(event));
}

void
setTrackName(int tid, const std::string& name)
{
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.track_names[tid] = name;
}

Status
stopTraceAndWrite()
{
    if (!traceEnabled())
        return Status();
    g_enabled.store(false, std::memory_order_release);

    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int pid = static_cast<int>(::getpid());

    std::string out;
    out.reserve(1 << 16);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const auto& buf : s.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        if (buf->events.empty())
            continue;
        if (s.track_names.find(buf->tid) == s.track_names.end()) {
            appendMetaEvent(out, pid, buf->tid,
                            "thread-" + std::to_string(buf->tid),
                            first);
        }
    }
    for (const auto& [tid, name] : s.track_names)
        appendMetaEvent(out, pid, tid, name, first);
    for (const auto& buf : s.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mutex);
        for (const Event& event : buf->events) {
            const int tid =
                event.tid == kCallerTid ? buf->tid : event.tid;
            appendCompleteEvent(out, pid, tid, event, first);
        }
        buf->events.clear();
    }
    out += "\n]}\n";

    std::FILE* file = std::fopen(s.path.c_str(), "wb");
    if (file == nullptr)
        return Status::ioError("cannot open trace file " + s.path);
    const std::size_t written =
        std::fwrite(out.data(), 1, out.size(), file);
    const bool flushed = std::fclose(file) == 0;
    if (written != out.size() || !flushed)
        return Status::ioError("cannot write trace file " + s.path);
    return Status();
}

TraceSpan::TraceSpan(const char* name, const char* category)
{
    if (!traceEnabled())
        return;
    name_ = name;
    category_ = category;
    start_us_ = traceNowUs();
    active_ = true;
}

TraceSpan::TraceSpan(const std::string& name, const char* category)
{
    if (!traceEnabled())
        return;
    owned_name_ = name;
    category_ = category;
    start_us_ = traceNowUs();
    active_ = true;
}

TraceSpan::~TraceSpan()
{
    if (!active_ || !traceEnabled())
        return;
    Event event;
    event.name = name_ != nullptr ? std::string(name_) : owned_name_;
    event.category = category_;
    event.ts_us = start_us_;
    const std::uint64_t now = traceNowUs();
    event.dur_us = now > start_us_ ? now - start_us_ : 0;
    event.args = std::move(args_);
    record(std::move(event));
}

TraceSpan&
TraceSpan::arg(const char* key, const std::string& value)
{
    if (!active_)
        return *this;
    std::string encoded = "\"";
    appendJsonEscaped(encoded, value);
    encoded += "\"";
    appendArg(args_, key, encoded);
    return *this;
}

TraceSpan&
TraceSpan::arg(const char* key, std::uint64_t value)
{
    if (!active_)
        return *this;
    appendArg(args_, key, std::to_string(value));
    return *this;
}

} // namespace gpuecc::obs
