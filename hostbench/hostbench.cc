/**
 * @file
 * pcmap-hostbench: host-speed benchmark of the PCMap simulator.
 *
 * Runs one workload — a list of sweep points given as pcmap-sweep
 * key=value axes — over and over for a fixed host time, and checks
 * every point's simulated digest on the way.
 *
 *  - Untraced (--trace 0) gives the end-to-end numbers.  Each point is
 *    built as a System, run, and serialized through the sweep library
 *    exactly as pcmap-sweep does; System construction is timed apart
 *    as set-up.
 *  - Traced (--trace 1) gives the per-layer numbers.  Each point also
 *    runs on a stack wired by hand from the public parts System uses,
 *    with a timing port at every MemoryPort seam, a timing
 *    RequestSource around every generator and timed upcalls into the
 *    cores, driven with EventQueue::step().  Self time is exclusive:
 *    time inside a nested seam call belongs to the layer below.  The
 *    hand-wired stack must reproduce the untraced run's state digest
 *    and event count exactly, or its numbers are rejected.
 *
 * usage: pcmap-hostbench --workload NAME --seed N --seconds S
 *            --trace 0|1 [--digests FILE] [--emit-digests]
 *            -- key=value ...
 *
 * The key=value list is the workload's sweep (workloads=, modes=,
 * org=, insts=, tenants=, tier=, attrib=, ...); --seed becomes its
 * seeds= axis.  The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/tier.h"
#include "cache/tier_stats.h"
#include "core/memory_system.h"
#include "core/stat_export.h"
#include "core/system.h"
#include "cpu/core_model.h"
#include "fabric/fabric_stats.h"
#include "fabric/link_model.h"
#include "fabric/tenant.h"
#include "obs/attrib.h"
#include "obs/attrib_stats.h"
#include "obs/observer.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/perf.h"
#include "sim/rng.h"
#include "sweep/sweep_cli.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "workload/generator.h"
#include "workload/mixes.h"
#include "workload/profile.h"

namespace {

using namespace pcmap;
using Clock = std::chrono::steady_clock;

/**
 * Largest share of the traced wall that may fall outside every span
 * (the glue between set-up, start, the event loop and harvest).
 */
constexpr double kUnattributedTolerance = 0.01;

/**
 * Share of a traced point's wall by which the sum of its self times
 * may differ from the wall read on a separate clock.
 */
constexpr double kConservationSlack = 1e-3;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ digests

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

void
appendField(std::string &out, const std::string &key, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += key;
    out += '=';
    out += buf;
    out += '\n';
}

/** The component stats a sweep row carries, in pcmap-sweep's order. */
stats::FlatStats
componentStats(MainMemory &mem, const fabric::LinkModel *link,
               const cache::CacheTier *tier,
               const obs::attrib::AttribCollector *attrib,
               Tick sim_ticks)
{
    SystemStatExport exporter(mem);
    exporter.refresh();
    stats::FlatStats out = exporter.root().flattened();
    if (link != nullptr) {
        fabric::FabricStatExport fex(*link);
        fex.refresh(sim_ticks);
        fex.root().collect(out);
    }
    if (tier != nullptr) {
        cache::CacheStatExport cex(*tier);
        cex.refresh();
        cex.root().collect(out);
    }
    if (attrib != nullptr) {
        obs::AttribStatExport aex(*attrib);
        aex.refresh();
        aex.root().collect(out);
    }
    return out;
}

/**
 * Canonical listing of a finished point's simulated state: every
 * component stat, every core's and every open-loop stream's counters,
 * and the simulated end time.  Both the System run and the hand-wired
 * run can produce it, so it is what the traced run must reproduce.
 */
std::string
stateListing(const stats::FlatStats &component,
             const std::vector<const CoreModel *> &cores,
             const std::vector<const fabric::TenantStream *> &streams,
             Tick sim_ticks)
{
    std::string out;
    for (const auto &[key, value] : component)
        appendField(out, key, value);
    for (const CoreModel *c : cores) {
        const CoreStats &s = c->stats();
        const std::string p = "core" + std::to_string(c->id()) + ".";
        const auto u = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        appendField(out, p + "instRetired", u(s.instRetired));
        appendField(out, p + "readsIssued", u(s.readsIssued));
        appendField(out, p + "writesIssued", u(s.writesIssued));
        appendField(out, p + "readStalls", u(s.readStalls));
        appendField(out, p + "readStallTicks", u(s.readStallTicks));
        appendField(out, p + "retryStallTicks", u(s.retryStallTicks));
        appendField(out, p + "specReadsSeen", u(s.specReadsSeen));
        appendField(out, p + "consumedBeforeVerify",
                    u(s.consumedBeforeVerify));
        appendField(out, p + "rollbacks", u(s.rollbacks));
        appendField(out, p + "rollbackTicks", u(s.rollbackTicks));
        appendField(out, p + "finishTick", u(s.finishTick));
        appendField(out, p + "ipc", c->ipc());
    }
    for (std::size_t t = 0; t < streams.size(); ++t) {
        const std::string p = "tenant" + std::to_string(t) + ".";
        appendField(out, p + "injected",
                    static_cast<double>(streams[t]->injected()));
        appendField(out, p + "dropped",
                    static_cast<double>(streams[t]->dropped()));
    }
    appendField(out, "sim.ticks", static_cast<double>(sim_ticks));
    return out;
}

/** True when core slot @p i belongs to an open-loop tenant (no core). */
bool
openLoopSlot(const SystemConfig &cfg, unsigned i)
{
    if (!cfg.fabric.enabled())
        return false;
    const auto tenants =
        static_cast<unsigned>(cfg.fabric.tenants.size());
    return cfg.fabric.tenants[i * tenants / cfg.numCores].arrival !=
           fabric::ArrivalKind::Closed;
}

std::string
describeError(const std::exception &e)
{
    if (const auto *se = dynamic_cast<const SimError *>(&e)) {
        return std::string(se->kind() == SimError::Kind::Fatal
                               ? "fatal: "
                               : "panic: ") +
               se->what();
    }
    return std::string("exception: ") + e.what();
}

// ------------------------------------------------------ untraced run

/** One point as pcmap-sweep runs it. */
struct PointResult
{
    bool ok = false;
    std::string error;
    double setupS = 0.0;   ///< System construction
    double runS = 0.0;     ///< System::run()
    double harvestS = 0.0; ///< stat export, row serialization, digest
    std::uint64_t reqs = 0;  ///< PCM reads + PCM writes + tier hits
    std::uint64_t insts = 0; ///< SystemResults::instRetired
    std::uint64_t events = 0;
    /** Serialized sweep row plus state listing; checked against the
     *  stored digest. */
    std::uint64_t digest = 0;
    /** State listing only; the traced run must reproduce it. */
    std::uint64_t stateDigest = 0;
};

PointResult
runUntraced(const sweep::SweepPoint &point, const obs::ObsConfig &obs_cfg)
{
    PointResult out;
    sweep::SweepRunner runner;
    runner.setRunFn([&](const sweep::SweepPoint &p,
                        sweep::RunRecord &rec) {
        SystemConfig cfg = p.config;
        cfg.obs = obs_cfg;
        const auto t0 = Clock::now();
        System sys(cfg, workload::makeWorkload(p.workload, cfg.numCores));
        const auto t1 = Clock::now();
        rec.results = sys.run();
        const auto t2 = Clock::now();

        const obs::RunObserver *ob = sys.observer();
        rec.stats = componentStats(
            sys.memory(), sys.fabricLink(), sys.cacheTier(),
            ob != nullptr ? ob->attribCollector() : nullptr,
            rec.results.simTicks);
        rec.ok = true; // serialize the row as the sweep will report it
        std::vector<const CoreModel *> cores;
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            if (!openLoopSlot(cfg, i))
                cores.push_back(&sys.core(i));
        }
        std::vector<const fabric::TenantStream *> streams;
        for (unsigned t = 0; t < cfg.fabric.tenants.size(); ++t) {
            if (const fabric::TenantStream *s = sys.tenantStream(t))
                streams.push_back(s);
        }
        const std::string state = stateListing(rec.stats, cores, streams,
                                               rec.results.simTicks);
        out.stateDigest = fnv1a(state);
        out.digest = fnv1a(sweep::toJsonLine(rec) + "\n" + state);
        const auto t3 = Clock::now();

        out.setupS = secondsBetween(t0, t1);
        out.runS = secondsBetween(t1, t2);
        out.harvestS = secondsBetween(t2, t3);
        const SystemResults &r = rec.results;
        out.reqs = r.readsCompleted + r.writesCompleted + r.cacheHits;
        out.insts = r.instRetired;
        out.events = r.hostEventsExecuted;
    });
    const sweep::SweepReport report = runner.runPoints({point});
    out.ok = report.rows[0].ok;
    out.error = report.rows[0].error;
    return out;
}

// -------------------------------------------------------- traced run

/** Host-time layers of the traced run. */
enum Layer : std::uint8_t {
    kUnattributed, ///< outside every span: glue between the phases
    kSetup,        ///< wiring the stack (System construction)
    kSim,          ///< fired events, minus nested seam spans
    kWorkload,     ///< SyntheticGenerator::next
    kCpu,          ///< upcalls into the cores, and their start()
    kFabric,       ///< LinkModel seam calls and upcalls
    kCache,        ///< CacheTier seam calls and upcalls
    kCore,         ///< MainMemory enqueue
    kHarvest,      ///< drain to digest: finalize, stat export
    kLayers
};

/**
 * Exclusive host time per layer from a single cursor: entering or
 * leaving a span bills the time since the cursor to the span that was
 * on top, so every nanosecond between begin() and end() lands in
 * exactly one layer.
 */
class SpanClock
{
  public:
    void
    begin()
    {
        depth = 0;
        stack[0] = kUnattributed;
        cursor = Clock::now();
    }

    void
    enter(Layer layer)
    {
        charge();
        if (depth + 1 >= stack.size())
            pcmap_panic("hostbench: span nesting deeper than ",
                        stack.size());
        stack[++depth] = layer;
    }

    void
    leave()
    {
        charge();
        --depth;
    }

    void end() { charge(); }

    /** Self nanoseconds per layer since construction. */
    std::array<std::int64_t, kLayers> selfNs{};

  private:
    void
    charge()
    {
        const Clock::time_point now = Clock::now();
        selfNs[stack[depth]] +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - cursor)
                .count();
        cursor = now;
    }

    std::array<Layer, 64> stack{};
    std::size_t depth = 0;
    Clock::time_point cursor{};
};

/** RAII span on a SpanClock. */
class Span
{
  public:
    Span(SpanClock &clock, Layer layer) : clk(clock) { clk.enter(layer); }
    ~Span() { clk.leave(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanClock &clk;
};

/** Counts taken at the seams of one traced point. */
struct SeamCounts
{
    std::array<std::uint64_t, kLayers> enqueueCalls{};
    std::array<std::uint64_t, kLayers> rejects{};
    std::uint64_t nextCalls = 0;
    std::uint64_t readCallbacks = 0; ///< read completions into cores
    std::uint64_t wakeups = 0;       ///< per-core onRetry calls
    std::uint64_t usefulWakeups = 0; ///< ... that tried an enqueue
};

/**
 * A timing seam in front of one layer's port.  Enqueues are billed to
 * that layer; callbacks registered through the seam are upcalls into
 * the caller and billed to the caller's layer.  Empty callbacks stay
 * empty so the layers below see exactly what they would untraced.
 */
class TimedPort : public ForwardingPort
{
  public:
    TimedPort(MemoryPort &downstream, Layer layer, Layer caller_layer,
              SpanClock &clock, SeamCounts &counts)
        : ForwardingPort(downstream), self(layer), caller(caller_layer),
          clk(clock), ctr(counts)
    {
    }

    /** Count enqueue attempts per issuing core into @p per_core. */
    void countAttempts(std::vector<std::uint64_t> *per_core)
    {
        attempts = per_core;
    }

    bool
    enqueueRead(const MemRequest &req, ReadCallback cb) override
    {
        noteAttempt(req);
        ReadCallback wrapped;
        if (cb) {
            wrapped = [this, inner = std::move(cb)](
                          const ReadResponse &resp) {
                if (caller == kCpu)
                    ++ctr.readCallbacks;
                Span s(clk, caller);
                inner(resp);
            };
        }
        bool ok = false;
        {
            Span s(clk, self);
            ok = down.enqueueRead(req, std::move(wrapped));
        }
        if (!ok)
            ++ctr.rejects[self];
        return ok;
    }

    bool
    enqueueWrite(const MemRequest &req) override
    {
        noteAttempt(req);
        bool ok = false;
        {
            Span s(clk, self);
            ok = down.enqueueWrite(req);
        }
        if (!ok)
            ++ctr.rejects[self];
        return ok;
    }

    void
    setRetryCallback(RetryCallback cb) override
    {
        down.setRetryCallback(upcall(std::move(cb)));
    }

    void
    setVerifyCallback(VerifyCallback cb) override
    {
        down.setVerifyCallback(upcall(std::move(cb)));
    }

    void
    setWriteCompleteCallback(WriteCompleteCallback cb) override
    {
        down.setWriteCompleteCallback(upcall(std::move(cb)));
    }

  private:
    void
    noteAttempt(const MemRequest &req)
    {
        ++ctr.enqueueCalls[self];
        if (attempts != nullptr && req.coreId < attempts->size())
            ++(*attempts)[req.coreId];
    }

    /** @p cb wrapped in a span of the caller's layer (empty stays empty). */
    template <typename Fn>
    Fn
    upcall(Fn cb)
    {
        if (!cb)
            return cb;
        return [this, inner = std::move(cb)](auto &&...args) {
            Span s(clk, caller);
            inner(std::forward<decltype(args)>(args)...);
        };
    }

    Layer self;
    Layer caller;
    SpanClock &clk;
    SeamCounts &ctr;
    std::vector<std::uint64_t> *attempts = nullptr;
};

/** A RequestSource whose next() is billed to the workload layer. */
class TimedSource : public RequestSource
{
  public:
    TimedSource(RequestSource &source, SpanClock &clock, SeamCounts &counts)
        : inner(source), clk(clock), ctr(counts)
    {
    }

    bool
    next(MemOp &op) override
    {
        ++ctr.nextCalls;
        Span s(clk, kWorkload);
        return inner.next(op);
    }

  private:
    RequestSource &inner;
    SpanClock &clk;
    SeamCounts &ctr;
};

/** One point on the hand-wired, traced stack. */
struct TracedResult
{
    bool ok = false;
    std::string error;
    double wallS = 0.0;
    SpanClock clock;
    SeamCounts counts;
    std::uint64_t stateDigest = 0;
    std::uint64_t events = 0;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t rowReads = 0;
    std::uint64_t wowGroups = 0;
    std::uint64_t writeRounds = 0;
    std::uint64_t tierHits = 0;
    std::uint64_t tierAccesses = 0;
    Tick simTicks = 0;
};

/**
 * Wire @p point the way System's constructor does, with timing seams
 * between the layers, then run and harvest it like System::run().
 */
void
wireAndRun(const sweep::SweepPoint &point, const obs::ObsConfig &obs_cfg,
           TracedResult &out)
{
    SpanClock &clk = out.clock;
    SeamCounts &ctr = out.counts;

    SystemConfig cfg = point.config;
    cfg.obs = obs_cfg;
    EventQueue eq;
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<cache::CacheTier> tier;
    std::unique_ptr<fabric::LinkModel> link;
    std::vector<std::unique_ptr<TimedPort>> seams;
    std::vector<unsigned> core_tenant;
    std::vector<std::uint64_t> attempts(cfg.numCores, 0);
    std::vector<std::unique_ptr<workload::SyntheticGenerator>> gens;
    std::vector<std::unique_ptr<TimedSource>> sources;
    std::vector<std::unique_ptr<CoreModel>> cores;
    std::vector<std::unique_ptr<fabric::TenantStream>> streams;
    std::unique_ptr<obs::RunObserver> observer;

    const auto wall_start = Clock::now();
    clk.begin();
    {
        Span setup(clk, kSetup);
        const workload::WorkloadSpec spec =
            workload::makeWorkload(point.workload, cfg.numCores);
        if (spec.cores() != cfg.numCores)
            fatal("workload '", spec.name, "' does not fit ",
                  cfg.numCores, " cores");
        cfg.geometry.validate();

        const bool fab_on = cfg.fabric.enabled();
        const auto num_tenants =
            static_cast<unsigned>(cfg.fabric.tenants.size());
        if (fab_on) {
            cfg.fabric.validate(cfg.numCores);
            core_tenant.resize(cfg.numCores);
            for (unsigned i = 0; i < cfg.numCores; ++i)
                core_tenant[i] = i * num_tenants / cfg.numCores;
        }

        // Same functional-store sizing hint as System.
        std::uint64_t footprint_hint = 0;
        std::uint64_t shared_footprint = 0;
        std::uint64_t shared_writes = 0;
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            const workload::AppProfile &prof =
                workload::findProfile(spec.coreApps[i]);
            const auto writes = static_cast<std::uint64_t>(
                static_cast<double>(cfg.instructionsPerCore) * prof.wpki /
                1000.0);
            if (spec.sharedAddressSpace) {
                shared_footprint =
                    std::max(shared_footprint, prof.footprintLines);
                shared_writes += writes;
            } else {
                footprint_hint += std::min(prof.footprintLines, writes);
            }
        }
        if (spec.sharedAddressSpace)
            footprint_hint = std::min(shared_footprint, shared_writes);

        ControllerConfig mc_cfg = cfg.controllerConfig();
        mc_cfg.footprintLinesHint = footprint_hint;
        mem = std::make_unique<MainMemory>(mc_cfg, cfg.geometry, eq);

        // [fabric link ->] [cache tier ->] MainMemory, with a seam in
        // front of each; the caller of the last seam is the cores.
        const Layer above_mem = cfg.tier.enabled() ? kCache
                                : fab_on           ? kFabric
                                                   : kCpu;
        seams.push_back(
            std::make_unique<TimedPort>(*mem, kCore, above_mem, clk, ctr));
        if (cfg.tier.enabled()) {
            cfg.tier.validate();
            tier = std::make_unique<cache::CacheTier>(cfg.tier, eq,
                                                      *seams.back());
            seams.push_back(std::make_unique<TimedPort>(
                *tier, kCache, fab_on ? kFabric : kCpu, clk, ctr));
        }
        if (fab_on) {
            link = std::make_unique<fabric::LinkModel>(
                cfg.fabric, core_tenant, eq, *seams.back());
            seams.push_back(std::make_unique<TimedPort>(
                *link, kFabric, kCpu, clk, ctr));
        }
        TimedPort &port = *seams.back();
        port.countAttempts(&attempts);

        struct OpenRegion
        {
            bool seen = false;
            std::uint64_t base = 0;
            std::uint64_t lines = 0;
            unsigned firstCore = 0;
            const workload::AppProfile *prof = nullptr;
        };
        std::vector<OpenRegion> open_regions(num_tenants);

        const std::uint64_t total_lines = cfg.geometry.totalLines();
        std::uint64_t next_base = 0;
        for (unsigned i = 0; i < cfg.numCores; ++i) {
            const workload::AppProfile &prof =
                workload::findProfile(spec.coreApps[i]);
            std::uint64_t base = 0;
            const std::uint64_t region = prof.footprintLines;
            if (!spec.sharedAddressSpace) {
                base = next_base;
                next_base += region;
                if (next_base > total_lines)
                    fatal("per-core footprints exceed the memory");
            }
            if (openLoopSlot(cfg, i)) {
                gens.push_back(nullptr);
                sources.push_back(nullptr);
                cores.push_back(nullptr);
                OpenRegion &r = open_regions[core_tenant[i]];
                if (!r.seen) {
                    r.seen = true;
                    r.base = base;
                    r.firstCore = i;
                    r.prof = &prof;
                    r.lines = region;
                } else if (!spec.sharedAddressSpace) {
                    r.lines += region;
                }
                continue;
            }
            gens.push_back(std::make_unique<workload::SyntheticGenerator>(
                prof, mem->backingStore(),
                cfg.seed * 1000003ull + i * 7919ull, base, region));
            sources.push_back(
                std::make_unique<TimedSource>(*gens.back(), clk, ctr));
            CoreConfig core_cfg = cfg.core;
            if (fab_on && cfg.fabric.tenants[core_tenant[i]].window > 0)
                core_cfg.maxOutstandingReads =
                    cfg.fabric.tenants[core_tenant[i]].window;
            cores.push_back(std::make_unique<CoreModel>(
                i, core_cfg, eq, port, *sources.back(),
                cfg.instructionsPerCore));
        }

        if (fab_on) {
            streams.resize(num_tenants);
            for (unsigned t = 0; t < num_tenants; ++t) {
                const fabric::TenantSpec &ts = cfg.fabric.tenants[t];
                if (ts.arrival == fabric::ArrivalKind::Closed)
                    continue;
                const OpenRegion &r = open_regions[t];
                streams[t] = std::make_unique<fabric::TenantStream>(
                    t, ts, eq, port, *r.prof, mem->backingStore(),
                    Rng::deriveStream(cfg.seed, t), r.base, r.lines,
                    r.firstCore);
            }
        }

        port.setRetryCallback([&cores, &attempts, &ctr]() {
            for (auto &c : cores) {
                if (!c)
                    continue;
                ++ctr.wakeups;
                const std::uint64_t before = attempts[c->id()];
                c->onRetry();
                if (attempts[c->id()] != before)
                    ++ctr.usefulWakeups;
            }
        });
        port.setVerifyCallback(
            [&cores](ReqId id, unsigned core_id, bool fault) {
                if (core_id < cores.size() && cores[core_id])
                    cores[core_id]->onVerify(id, fault);
            });

        if (cfg.obs.enabled()) {
            observer = std::make_unique<obs::RunObserver>(cfg.obs);
            if (obs::TraceRecorder *rec = observer->recorder()) {
                mem->setTraceRecorder(rec);
                if (tier)
                    tier->setTraceRecorder(rec);
                if (link)
                    link->setTraceRecorder(rec);
            }
            if (obs::attrib::AttribCollector *col =
                    observer->attribCollector()) {
                col->configureTenants(fab_on ? num_tenants : 1,
                                      core_tenant);
                mem->setAttrib(col);
                if (tier)
                    tier->setAttrib(col);
                if (link)
                    link->setAttrib(col);
            }
        }
    }

    for (auto &c : cores) {
        if (c) {
            Span s(clk, kCpu);
            c->start();
        }
    }
    for (auto &t : streams) {
        if (t) {
            Span s(clk, kFabric);
            t->start();
        }
    }
    {
        // One span for the whole loop: kernel dispatch is sim time.
        Span sim(clk, kSim);
        while (eq.step()) {
        }
    }

    {
        Span harvest(clk, kHarvest);
        for (const auto &c : cores) {
            if (c && !c->finished()) {
                pcmap_panic("event queue drained but core ", c->id(),
                            " retired only ", c->stats().instRetired,
                            " instructions (simulator deadlock)");
            }
        }
        const Tick end = eq.now();
        mem->finalize(end);
        obs::attrib::AttribCollector *col =
            observer ? observer->attribCollector() : nullptr;
        if (col != nullptr)
            col->finalize();

        const stats::FlatStats component =
            componentStats(*mem, link.get(), tier.get(), col, end);
        std::vector<const CoreModel *> core_list;
        for (const auto &c : cores) {
            if (c)
                core_list.push_back(c.get());
        }
        std::vector<const fabric::TenantStream *> stream_list;
        for (const auto &t : streams) {
            if (t)
                stream_list.push_back(t.get());
        }
        out.stateDigest =
            fnv1a(stateListing(component, core_list, stream_list, end));
        out.simTicks = end;
        for (unsigned ch = 0; ch < mem->channels(); ++ch) {
            const ControllerStats &s = mem->controller(ch).stats();
            out.rowReads += s.rowReads;
            out.wowGroups += s.wowGroups;
            out.writeRounds += s.writeRoundsIssued;
        }
        if (tier) {
            out.tierHits = tier->counters().hits();
            out.tierAccesses =
                tier->counters().hits() + tier->counters().misses();
        }
    }
    clk.end();
    out.wallS = secondsBetween(wall_start, Clock::now());
    out.events = eq.counters().eventsExecuted;
    out.scheduleCalls = eq.counters().scheduleCalls;
}

void
runTraced(const sweep::SweepPoint &point, const obs::ObsConfig &obs_cfg,
          TracedResult &out)
{
    try {
        ScopedErrorTrap trap;
        wireAndRun(point, obs_cfg, out);
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = describeError(e);
    }
}

// ------------------------------------------------------------ driver

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;
    bool emitDigests = false;
    std::vector<std::string> sweepKeys;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "pcmap-hostbench: %s\n"
                 "usage: pcmap-hostbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--digests FILE] "
                 "[--emit-digests] -- key=value ...\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    int i = 1;
    const auto value = [&](const char *flag) -> std::string {
        if (i + 1 >= argc)
            usage(std::string(flag) + " needs a value");
        return argv[++i];
    };
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--") {
            for (++i; i < argc; ++i)
                a.sweepKeys.emplace_back(argv[i]);
            break;
        }
        if (arg == "--workload") {
            a.workload = value("--workload");
        } else if (arg == "--seed") {
            a.seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(value("--seconds").c_str(), nullptr);
        } else if (arg == "--trace") {
            a.trace = value("--trace") == "1";
        } else if (arg == "--digests") {
            a.digests = value("--digests");
        } else if (arg == "--emit-digests") {
            a.emitDigests = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.sweepKeys.empty())
        usage("no sweep keys after --");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Stored digests of (workload, seed), by point index. */
std::map<std::size_t, std::uint64_t>
loadDigests(const std::string &path, const std::string &workload,
            std::uint64_t seed)
{
    std::map<std::size_t, std::uint64_t> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read digests file ", path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, hex;
        std::uint64_t s = 0;
        std::size_t index = 0;
        if (!(ls >> w >> s >> index >> hex))
            fatal("malformed digests line: ", line);
        if (w == workload && s == seed)
            out[index] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One metric of the result line: per-pass samples, reported as median. */
struct Metric
{
    std::string name;
    std::string unit;
    std::vector<double> samples;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One pass's traced points, summed. */
struct LayerTotals
{
    double wallS = 0.0;
    std::array<std::int64_t, kLayers> selfNs{};
    SeamCounts counts;
    std::uint64_t scheduleCalls = 0;
    std::uint64_t rowReads = 0;
    std::uint64_t wowGroups = 0;
    std::uint64_t writeRounds = 0;
    std::uint64_t tierHits = 0;
    std::uint64_t tierAccesses = 0;
    Tick simTicks = 0;

    void
    add(const TracedResult &t)
    {
        wallS += t.wallS;
        for (unsigned l = 0; l < kLayers; ++l) {
            selfNs[l] += t.clock.selfNs[l];
            counts.enqueueCalls[l] += t.counts.enqueueCalls[l];
            counts.rejects[l] += t.counts.rejects[l];
        }
        counts.nextCalls += t.counts.nextCalls;
        counts.readCallbacks += t.counts.readCallbacks;
        counts.wakeups += t.counts.wakeups;
        counts.usefulWakeups += t.counts.usefulWakeups;
        scheduleCalls += t.scheduleCalls;
        rowReads += t.rowReads;
        wowGroups += t.wowGroups;
        writeRounds += t.writeRounds;
        tierHits += t.tierHits;
        tierAccesses += t.tierAccesses;
        simTicks += t.simTicks;
    }

    double
    self(Layer l) const
    {
        return 1e-9 * static_cast<double>(selfNs[l]);
    }
};

/**
 * The per-layer metrics of one pass, one sample each, in report
 * order.  @p events and the untraced times come from the same pass's
 * untraced runs.
 */
std::vector<Metric>
layerMetrics(const LayerTotals &lt, std::uint64_t events,
             double untraced_run_s, double untraced_wall_s)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const SeamCounts &c = lt.counts;
    return {
        {"workload.next_calls", "count", {d(c.nextCalls)}},
        {"workload.self_s", "s", {lt.self(kWorkload)}},
        {"cpu.self_s", "s", {lt.self(kCpu)}},
        {"cpu.read_callbacks", "count", {d(c.readCallbacks)}},
        {"cpu.wakeups", "count", {d(c.wakeups)}},
        {"cpu.wakeups_useful_ratio", "ratio",
         {ratio(d(c.usefulWakeups), d(c.wakeups))}},
        {"fabric.enqueue_calls", "count", {d(c.enqueueCalls[kFabric])}},
        {"fabric.rejects", "count", {d(c.rejects[kFabric])}},
        {"fabric.self_s", "s", {lt.self(kFabric)}},
        {"cache.enqueue_calls", "count", {d(c.enqueueCalls[kCache])}},
        {"cache.rejects", "count", {d(c.rejects[kCache])}},
        {"cache.self_s", "s", {lt.self(kCache)}},
        {"cache.hit_rate", "ratio",
         {ratio(d(lt.tierHits), d(lt.tierAccesses))}},
        {"core.enqueue_calls", "count", {d(c.enqueueCalls[kCore])}},
        {"core.rejects", "count", {d(c.rejects[kCore])}},
        {"core.enqueue_self_s", "s", {lt.self(kCore)}},
        {"sim.event_self_s", "s", {lt.self(kSim)}},
        {"sim.events", "count", {d(events)}},
        {"sim.schedule_calls", "count", {d(lt.scheduleCalls)}},
        {"sim.events_per_s", "1/s", {ratio(d(events), untraced_run_s)}},
        {"stats.harvest_s", "s", {lt.self(kHarvest)}},
        {"layers.setup_s", "s", {lt.self(kSetup)}},
        {"core.row_reads", "count", {d(lt.rowReads)}},
        {"core.wow_groups", "count", {d(lt.wowGroups)}},
        {"core.write_rounds", "count", {d(lt.writeRounds)}},
        {"sim.ticks", "ps", {d(lt.simTicks)}},
        {"trace.wall_s", "s", {lt.wallS}},
        {"trace.overhead_ratio", "ratio",
         {ratio(lt.wallS, untraced_wall_s)}},
        {"layers.unattributed_s", "s", {lt.self(kUnattributed)}},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    Config sweep_args;
    for (const std::string &kv : args.sweepKeys) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            usage("sweep key '" + kv + "' is not key=value");
        sweep_args.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    if (sweep_args.has("seeds"))
        usage("seeds= comes from --seed");
    sweep_args.set("seeds", std::to_string(args.seed));
    const sweep::SweepSpec spec = sweep::specFromConfig(sweep_args);
    const obs::ObsConfig obs_cfg = sweep::obsFromConfig(sweep_args).obs;
    if (obs_cfg.trace || obs_cfg.epochTicks > 0)
        fatal("hostbench workloads may enable attrib= only "
              "(trace= and obsEpoch= write files)");
    const std::vector<sweep::SweepPoint> points = spec.expand();

    if (args.emitDigests) {
        int failures = 0;
        for (const sweep::SweepPoint &p : points) {
            const PointResult r = runUntraced(p, obs_cfg);
            if (!r.ok) {
                std::fprintf(stderr, "point %zu failed: %s\n", p.index,
                             r.error.c_str());
                ++failures;
                continue;
            }
            std::printf("%s %" PRIu64 " %zu %s\n", args.workload.c_str(),
                        args.seed, p.index, hex64(r.digest).c_str());
        }
        return failures == 0 ? 0 : 1;
    }

    const std::map<std::size_t, std::uint64_t> stored =
        loadDigests(args.digests, args.workload, args.seed);
    const bool have_stored = stored.size() == points.size();
    // Without stored digests for this seed, the first pass is the
    // reference every later pass must reproduce.
    std::vector<std::uint64_t> reference(points.size(), 0);
    std::vector<bool> has_reference(points.size(), false);
    if (have_stored) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto it = stored.find(points[i].index);
            reference[i] = it->second;
            has_reference[i] = true;
        }
    }

    const perf::MachineInfo mi = perf::machineInfo();
    std::printf("# hostbench workload=%s seed=%" PRIu64
                " seconds=%g trace=%d points=%zu\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0, points.size());
    std::printf("# machine host=%s os=\"%s\" cpu=\"%s\" "
                "hardware_threads=%u build=%s compiler=%s\n",
                mi.host.c_str(), mi.os.c_str(), mi.cpu.c_str(),
                mi.hardwareThreads, PCMAP_HOSTBENCH_BUILD_TYPE,
                PCMAP_HOSTBENCH_COMPILER);
    std::printf("# digests: %s\n",
                have_stored ? "stored for this workload and seed"
                            : "none stored for this seed; passes are "
                              "checked against the first");

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;
    const auto fail = [&](const std::string &what) {
        ++failed;
        correct = false;
        if (problems.size() < 8)
            problems.push_back(what);
    };

    /** Untraced run of point @p i with its output check. */
    const auto untraced = [&](std::size_t i) -> PointResult {
        PointResult r = runUntraced(points[i], obs_cfg);
        if (!r.ok) {
            fail("point " + std::to_string(i) + ": " + r.error);
            return r;
        }
        if (!has_reference[i]) {
            reference[i] = r.digest;
            has_reference[i] = true;
        } else if (r.digest != reference[i]) {
            fail("point " + std::to_string(i) + " digest " +
                 hex64(r.digest) + " != expected " + hex64(reference[i]));
            r.ok = false;
        }
        return r;
    };

    // End-to-end: the best (run + harvest) time of each point over the
    // measured passes.  Every pass repeats identical simulated work, so
    // what differs between passes is host interference, which only
    // ever adds time.
    std::vector<double> best_work(points.size(), 0.0);
    std::vector<std::uint64_t> point_reqs(points.size(), 0);
    std::vector<std::uint64_t> point_insts(points.size(), 0);
    Metric setup_s{"setup_s", "s", {}};
    std::vector<Metric> layer; // per-layer metrics (traced run)

    // One unmeasured warm-up pass, then passes until time is up.
    const auto deadline_from = [&](Clock::time_point start) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    };
    Clock::time_point deadline{};
    unsigned passes = 0;
    for (unsigned pass = 0;; ++pass) {
        if (pass == 1)
            deadline = deadline_from(Clock::now());
        else if (pass > 1 && Clock::now() >= deadline &&
                 (passes >= 3 || !correct))
            break;

        double setup = 0, untraced_wall = 0, untraced_run = 0;
        std::uint64_t events = 0;
        LayerTotals traced;
        bool pass_ok = true;

        for (std::size_t i = 0; i < points.size(); ++i) {
            ++attempted;
            const PointResult r = untraced(i);
            if (!r.ok) {
                pass_ok = false;
                continue;
            }
            setup += r.setupS;
            if (pass > 0 && (best_work[i] == 0 ||
                             r.runS + r.harvestS < best_work[i]))
                best_work[i] = r.runS + r.harvestS;
            point_reqs[i] = r.reqs;
            point_insts[i] = r.insts;
            untraced_wall += r.setupS + r.runS + r.harvestS;
            untraced_run += r.runS;
            events += r.events;
            if (!args.trace)
                continue;

            TracedResult t;
            runTraced(points[i], obs_cfg, t);
            const std::string at = "point " + std::to_string(i);
            if (!t.ok) {
                fail(at + " traced: " + t.error);
                pass_ok = false;
                continue;
            }
            if (t.stateDigest != r.stateDigest || t.events != r.events) {
                fail(at + " traced run is not transparent (digest " +
                     hex64(t.stateDigest) + " vs " +
                     hex64(r.stateDigest) + ", events " +
                     std::to_string(t.events) + " vs " +
                     std::to_string(r.events) + ")");
                pass_ok = false;
                continue;
            }
            double self_sum = 0;
            for (const std::int64_t ns : t.clock.selfNs)
                self_sum += 1e-9 * static_cast<double>(ns);
            if (std::fabs(self_sum - t.wallS) >
                kConservationSlack * t.wallS) {
                fail(at + " self times sum to " + std::to_string(self_sum) +
                     " s but the traced wall is " +
                     std::to_string(t.wallS) + " s");
                pass_ok = false;
                continue;
            }
            traced.add(t);
        }
        if (pass == 0 || !pass_ok)
            continue; // warm-up, or a pass with a failed point
        ++passes;

        setup_s.samples.push_back(setup);
        if (!args.trace)
            continue;

        std::vector<Metric> values =
            layerMetrics(traced, events, untraced_run, untraced_wall);
        if (layer.empty()) {
            layer = std::move(values);
        } else {
            for (std::size_t m = 0; m < layer.size(); ++m)
                layer[m].samples.push_back(values[m].samples[0]);
        }
        const double unattributed = traced.self(kUnattributed);
        if (unattributed > kUnattributedTolerance * traced.wallS) {
            correct = false;
            if (problems.size() < 8) {
                problems.push_back(
                    "unattributed time " + std::to_string(unattributed) +
                    " s exceeds " + std::to_string(kUnattributedTolerance) +
                    " of the traced wall " + std::to_string(traced.wallS));
            }
        }
    }
    if (passes == 0)
        correct = false;

    for (const std::string &p : problems)
        std::printf("# problem: %s\n", p.c_str());

    std::vector<Metric> report;
    if (args.trace) {
        report = layer;
    } else {
        double best = 0, reqs = 0, insts = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            std::printf("# point %zu %s/%s best_s=%.6g reqs=%" PRIu64 "\n",
                        points[i].index, points[i].label().c_str(),
                        points[i].workload.c_str(), best_work[i],
                        point_reqs[i]);
            best += best_work[i];
            reqs += static_cast<double>(point_reqs[i]);
            insts += static_cast<double>(point_insts[i]);
        }
        Metric reqs_per_s{"reqs_per_s", "1/s", {ratio(reqs, best)}};
        Metric rss{"peak_rss_mb", "MB",
                   {static_cast<double>(perf::peakRssKb()) / 1024.0}};
        report = {reqs_per_s, setup_s, rss};
        // Instructions come from SystemResults::instRetired, so a
        // workload whose tenants are all open-loop retires none.
        if (insts > 0) {
            std::printf("# insts_per_s %.6g 1/s (same best-of-passes "
                        "time; not a result metric)\n",
                        ratio(insts, best));
        }
    }
    std::printf("# passes=%u attempted=%" PRIu64 " failed=%" PRIu64
                " points_failed=%.6g\n",
                passes, attempted, failed,
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));
    for (const Metric &m : report) {
        std::vector<double> v = m.samples;
        std::sort(v.begin(), v.end());
        std::printf("# %-26s %-14.6g %-6s (median of %zu; min %.6g "
                    "max %.6g)\n",
                    m.name.c_str(), median(m.samples), m.unit.c_str(),
                    v.size(), v.empty() ? 0.0 : v.front(),
                    v.empty() ? 0.0 : v.back());
    }

    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < report.size(); ++i) {
        line += (i ? ", \"" : "\"") + report[i].name +
                "\": {\"value\": " + jsonNumber(median(report[i].samples)) +
                ", \"unit\": \"" + report[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
