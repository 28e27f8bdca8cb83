/**
 * @file
 * coolcmp_bench — the end-to-end benchmark runner behind
 * perfbench/run.py. It drives CoolCMP only through its public API
 * (Experiment, TraceBuilder, ChipModel, DtmSimulator's cooperative
 * phases, BatchedZohPropagator, SweepJournal, FleetCoordinator and the
 * coolcmp-worker binary) and writes one JSON result file; run.py
 * checks the outputs against the goldens and prints the metrics.
 *
 * Usage:
 *   coolcmp_bench --prime --work DIR
 *   coolcmp_bench --workload NAME --seed N --seconds S --trace 0|1
 *                 --work DIR --worker PATH --out FILE
 *
 * --prime fills the warm workloads' trace caches under DIR (once per
 * checkout; not timed). With --trace 0 the workload runs once untimed,
 * then repeats, each repetition a fresh set-up plus the whole
 * workload, until S seconds have passed; the result holds every
 * repetition's timings and the host-speed reference timed between
 * them (run.py scales the timings by it). With
 * --trace 1 the workload runs once on one thread with a span around
 * every call into a layer, and once untraced on one thread for the
 * overhead comparison; spans go to DIR/trace-<workload>.json.
 *
 * The seed only permutes job order: every output is keyed by job
 * identity, so every seed must produce the same bytes per job.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/sweep_journal.hh"
#include "fleet/coordinator.hh"
#include "fleet/demo.hh"
#include "obs/export.hh"
#include "svc/build_info.hh"
#include "svc/json.hh"
#include "thermal/batched.hh"
#include "util/logging.hh"

#ifndef __OPTIMIZE__
#error "the benchmark must be compiled with optimization"
#endif

namespace fs = std::filesystem;
using namespace coolcmp;
using svc::JsonValue;

namespace {

using Clock = std::chrono::steady_clock;

// --- Workload sizes. Chosen so one repetition takes a few seconds on
//     a 4-core host and a run holds several repetitions. ---

/** Trace length of cold_quickstart. The quickstart's full 720-interval
 *  traces take about 17 s each to generate; a shorter trace keeps the
 *  same calls (OoO core -> power model per interval) at a size that
 *  repeats within one run. */
constexpr std::size_t kColdIntervals = 24;

/** Silicon time per mesh16_sweep job (the paper runs are 0.5 s). */
constexpr double kMeshDuration = 0.1;

/** Jobs in fleet_sweep's demo sweep. */
constexpr std::size_t kFleetJobs = 960;

/** Set-ups per repetition of the in-process workloads: a set-up takes
 *  tens of milliseconds, so one sample per repetition is too few for
 *  a steady median. */
constexpr int kSetupSamples = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

/** High-water resident set of a live process in MB (VmHWM, which
 *  exec resets, unlike getrusage's ru_maxrss that inherits the
 *  parent's peak); 0 once the process is gone. */
double
peakRssMb(const std::string &pid = "self")
{
    std::ifstream status("/proc/" + pid + "/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

std::size_t
hostThreads()
{
    return std::max<unsigned>(1, std::thread::hardware_concurrency());
}

// --- Host speed reference. ---

/** Iterations of the reference work: about 14 ms on one core. */
constexpr int kRefIterations = 1 << 19;

/** Reference samples taken between two repetitions: short samples,
 *  many of them, so one descheduling spoils one sample only. */
constexpr int kRefSamples = 8;

/** Fixed work that depends on nothing in CoolCMP: random
 *  read-modify-writes over a 256 KB table with a data-dependent branch
 *  (cache-simulator-like) and a 16x16 matrix-vector product
 *  (thermal-step-like). Timed next to every repetition, it measures
 *  how fast the shared host runs the benchmark at that moment. */
std::uint64_t
referenceWork(std::vector<std::uint64_t> &table)
{
    constexpr int n = 16;
    double v[n], w[n];
    for (int i = 0; i < n; ++i)
        v[i] = 1.0 + i;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    const std::size_t mask = table.size() - 1;
    for (int it = 0; it < kRefIterations; ++it) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x & mask];
        if ((slot ^ x) & 1)
            slot += x;
        else
            slot ^= x >> 3;
        acc += slot;
        if ((it & 7) == 0) {
            // Row sums of 1: v stays bounded.
            for (int i = 0; i < n; ++i) {
                double sum = 0.0;
                for (int j = 0; j < n; ++j)
                    sum += v[j] * (i == j ? 0.5 : 0.5 / (n - 1));
                w[i] = sum;
            }
            for (int i = 0; i < n; ++i)
                v[i] = w[i] + 1e-3 * static_cast<double>(slot & 15);
        }
    }
    return acc + static_cast<std::uint64_t>(v[0]);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(
                                                       ts.tv_nsec);
}

/** The reference work run on `threads` threads at once, each on its
 *  own table. A sample is the mean over the threads of each one's CPU
 *  time and of each one's wall time. CPU time grows when the host runs
 *  the cores slower (clock speed, a busy sibling hyperthread); wall
 *  time grows with that and with the time the host takes the cores
 *  away (steal). */
class HostReference
{
  public:
    explicit HostReference(std::size_t threads)
        : tables_(threads, std::vector<std::uint64_t>(1 << 15, 1))
    {
    }

    void sample()
    {
        std::vector<double> cpu(tables_.size()), wall(tables_.size());
        auto work = [this, &cpu, &wall](std::size_t t) {
            const auto t0 = Clock::now();
            const double c0 = threadCpuSeconds();
            sink_ += referenceWork(tables_[t]);
            cpu[t] = threadCpuSeconds() - c0;
            wall[t] = secondsSince(t0);
        };
        if (tables_.size() == 1) {
            work(0); // on the thread that runs the workload
        } else {
            std::vector<std::thread> pool;
            for (std::size_t t = 0; t < tables_.size(); ++t)
                pool.emplace_back(work, t);
            for (std::thread &th : pool)
                th.join();
        }
        const double n = static_cast<double>(tables_.size());
        double cpuSum = 0.0, wallSum = 0.0;
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            cpuSum += cpu[t];
            wallSum += wall[t];
        }
        cpuS.push_back(cpuSum / n);
        wallS.push_back(wallSum / n);
    }

    std::vector<double> cpuS, wallS; ///< one entry per sample

  private:
    std::vector<std::vector<std::uint64_t>> tables_;
    std::atomic<std::uint64_t> sink_{0}; ///< keeps the work alive
};

/** splitmix64 Fisher-Yates: the same seed permutes the same way on
 *  every standard library. */
template <typename T>
void
permute(std::vector<T> &items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    auto next = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[next() % i]);
}

std::string
metricsBody(const RunMetrics &m)
{
    std::ostringstream out;
    writeRunMetricsBody(out, m);
    return out.str();
}

std::string
jobKey(const Workload &workload, const PolicyConfig &policy)
{
    return workload.name + "|" + policy.slug();
}

// --- Workload definitions. ---

struct Setup
{
    std::string name;
    DtmConfig config;
    TraceBuilderConfig traces;
    std::string floorplan; ///< empty = the paper's 4-core chip
    std::vector<RunJob> jobs;
};

std::vector<std::string>
benchmarksOf(const std::vector<RunJob> &jobs)
{
    std::vector<std::string> names;
    for (const RunJob &job : jobs)
        for (const std::string &b : job.workload.benchmarks)
            if (std::find(names.begin(), names.end(), b) == names.end())
                names.push_back(b);
    return names;
}

TraceBuilderConfig
fastTraces(const std::string &dir)
{
    TraceBuilderConfig cfg;
    cfg.numIntervals = 16;
    cfg.sampledShare = 0.2;
    cfg.warmupCycles = 30000;
    cfg.cacheDir = dir;
    return cfg;
}

std::vector<RunJob>
table4Grid()
{
    std::vector<RunJob> jobs;
    for (const Workload &w : table4Workloads())
        for (const PolicyConfig &p : allPolicies())
            jobs.push_back({w, p, {}});
    return jobs;
}

Setup
makeSetup(const std::string &name, const std::string &work)
{
    Setup s;
    s.name = name;
    s.traces.cacheDir = work + "/traces-full";
    if (name == "cold_quickstart") {
        s.traces.numIntervals = kColdIntervals;
        s.traces.cacheDir = work + "/traces-cold";
        const Workload &w = findWorkload("workload7");
        s.jobs.push_back({w, baselinePolicy(), {}});
        s.jobs.push_back({w,
                          {ThrottleMechanism::Dvfs,
                           ControlScope::Distributed,
                           MigrationKind::SensorBased},
                          {}});
    } else if (name == "paper_sweep") {
        s.jobs = table4Grid();
    } else if (name == "mesh16_sweep") {
        s.config.duration = kMeshDuration;
        s.floorplan = "mesh16";
        for (const Workload &w : table4Workloads())
            s.jobs.push_back({w,
                              {ThrottleMechanism::Dvfs,
                               ControlScope::Distributed,
                               MigrationKind::None},
                              {}});
    } else if (name == "fleet_sweep") {
        s.config.duration = 0.02;
        s.traces = fastTraces(work + "/traces-fast");
        s.jobs = fleet::demoSweep(kFleetJobs).request.jobs();
    } else {
        fatal("unknown workload ", name);
    }
    return s;
}

// --- One untraced repetition. ---

struct Rep
{
    std::vector<double> setupS; ///< one entry per set-up made
    double wallS = 0.0;
    double cpuS = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double workerRssMb = 0.0; ///< largest worker VmHWM sampled
    std::map<std::string, std::string> bodies; ///< job key -> body
    std::vector<RunMetrics> metrics;           ///< in `jobs` order
    std::vector<RunJob> jobs;
};

void
collect(Rep &rep, const std::vector<RunJob> &jobs,
        const std::vector<RunMetrics> &results)
{
    rep.jobs = jobs;
    rep.metrics = results;
    rep.attempted = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string key = jobKey(jobs[i].workload, jobs[i].policy);
        const std::string body = metricsBody(results[i]);
        auto [it, fresh] = rep.bodies.emplace(key, body);
        if (!fresh && it->second != body)
            ++rep.failed; // one identity, two different outputs
    }
}

std::vector<RunJob>
permuted(const Setup &s, std::uint64_t seed)
{
    std::vector<RunJob> jobs = s.jobs;
    permute(jobs, seed);
    return jobs;
}

Rep
runColdQuickstart(const Setup &s, std::uint64_t seed)
{
    Rep rep;
    std::error_code ec;
    fs::remove_all(s.traces.cacheDir, ec);
    const std::vector<RunJob> jobs = permuted(s, seed);

    std::unique_ptr<Experiment> experiment;
    for (int i = 0; i < kSetupSamples; ++i) {
        experiment.reset();
        const auto t0 = Clock::now();
        experiment = std::make_unique<Experiment>(s.config, s.traces);
        rep.setupS.push_back(secondsSince(t0));
    }

    const double cpu0 = cpuSeconds(RUSAGE_SELF);
    const auto t1 = Clock::now();
    std::vector<RunMetrics> results;
    for (const RunJob &job : jobs)
        results.push_back(experiment->run(job.workload, job.policy));
    rep.wallS = secondsSince(t1);
    rep.cpuS = cpuSeconds(RUSAGE_SELF) - cpu0;
    collect(rep, jobs, results);
    return rep;
}

Rep
runSweep(const Setup &s, std::uint64_t seed)
{
    Rep rep;
    const std::vector<RunJob> jobs = permuted(s, seed);
    RunRequest request(jobs);
    request.threads(hostThreads());
    if (!s.floorplan.empty())
        request.floorplan(s.floorplan);

    std::unique_ptr<Experiment> experiment;
    for (int i = 0; i < kSetupSamples; ++i) {
        experiment.reset();
        const auto t0 = Clock::now();
        experiment = std::make_unique<Experiment>(s.config, s.traces);
        if (!s.floorplan.empty())
            experiment->chipFor(s.floorplan);
        experiment->prefetchTraces(benchmarksOf(jobs), hostThreads());
        rep.setupS.push_back(secondsSince(t0));
    }

    const double cpu0 = cpuSeconds(RUSAGE_SELF);
    const auto t1 = Clock::now();
    const std::vector<RunMetrics> results = experiment->run(request);
    rep.wallS = secondsSince(t1);
    rep.cpuS = cpuSeconds(RUSAGE_SELF) - cpu0;
    collect(rep, jobs, results);
    rep.failed += experiment->lastRunReport().failedJobs;
    return rep;
}

/** Fork/exec one coolcmp-worker against the coordinator's port. */
pid_t
spawnWorker(const std::string &binary, std::uint16_t port, int index,
            const std::string &traceDir, const std::string &logDir)
{
    const std::string portArg = std::to_string(port);
    const std::string name = "w" + std::to_string(index);
    const std::string log = logDir + "/worker-" + name + ".log";
    const pid_t pid = fork();
    if (pid == 0) {
        // Worker chatter goes to its log, not the benchmark's output.
        if (std::freopen(log.c_str(), "w", stdout) == nullptr ||
            dup2(fileno(stdout), fileno(stderr)) < 0)
            _exit(126);
        execl(binary.c_str(), "coolcmp-worker", "--port",
              portArg.c_str(), "--name", name.c_str(), "--threads", "1",
              "--poll-ms", "20", "--trace-cache", traceDir.c_str(),
              static_cast<char *>(nullptr));
        _exit(127);
    }
    if (pid < 0)
        fatal("cannot fork a fleet worker");
    return pid;
}

struct FleetOutcome
{
    double workerCpuS = 0.0;
    std::size_t badExits = 0;
};

/** Reap every worker (killing stragglers after `graceSeconds`). */
FleetOutcome
reapWorkers(const std::vector<pid_t> &pids, double graceSeconds)
{
    FleetOutcome out;
    const auto t0 = Clock::now();
    std::vector<pid_t> live = pids;
    while (!live.empty()) {
        for (std::size_t i = 0; i < live.size();) {
            int status = 0;
            rusage ru{};
            const pid_t got = wait4(live[i], &status, WNOHANG, &ru);
            if (got == live[i] || got < 0) {
                if (got == live[i]) {
                    out.workerCpuS +=
                        static_cast<double>(ru.ru_utime.tv_sec +
                                            ru.ru_stime.tv_sec) +
                        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                   ru.ru_stime.tv_usec);
                    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                        ++out.badExits;
                } else {
                    ++out.badExits;
                }
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
        if (live.empty())
            break;
        if (secondsSince(t0) > graceSeconds)
            for (pid_t pid : live)
                kill(pid, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return out;
}

struct FleetRun
{
    Rep rep;
    FleetOutcome workers;
    double coordCpuS = 0.0;
    std::size_t workerCount = 0;
    fleet::LeaseStats leases;
    double commits = 0.0;
};

/** One fleet sweep; `phase(name, begin)` brackets each of its phases
 *  (the traced run opens and closes spans there). */
template <typename OnPhase>
FleetRun
runFleet(const Setup &s, std::uint64_t seed, const std::string &work,
         const std::string &workerBin, OnPhase &&phase)
{
    FleetRun run;
    svc::WireSweep sweep;
    sweep.client = "perfbench";
    sweep.request = RunRequest(permuted(s, seed));
    const std::string journal = work + "/fleet.journal";
    std::error_code ec;
    fs::remove(journal, ec);

    fleet::FleetCoordinator::Options options;
    options.journalPath = journal;
    options.httpThreads = 4;
    const std::size_t workers = std::max<std::size_t>(1, hostThreads() - 1);
    run.workerCount = workers;

    const auto t0 = Clock::now();
    phase("fleet.setup", true);
    fleet::FleetCoordinator coordinator(sweep, options, s.config,
                                        s.traces);
    const bool started = coordinator.start();
    phase("fleet.setup", false);
    run.rep.setupS.push_back(secondsSince(t0));
    if (!started)
        fatal("fleet coordinator failed to start");

    const double cpu0 = cpuSeconds(RUSAGE_SELF);
    const auto t1 = Clock::now();
    phase("fleet.spawn", true);
    std::vector<pid_t> pids;
    for (std::size_t w = 0; w < workers; ++w)
        pids.push_back(spawnWorker(workerBin, coordinator.port(),
                                   static_cast<int>(w),
                                   s.traces.cacheDir, work));
    phase("fleet.spawn", false);
    phase("fleet.transport", true);
    bool done = false;
    while (!done && secondsSince(t1) < 120.0) {
        done = coordinator.waitUntilDone(0.05);
        for (pid_t pid : pids)
            run.rep.workerRssMb = std::max(
                run.rep.workerRssMb, peakRssMb(std::to_string(pid)));
    }
    phase("fleet.transport", false);
    run.rep.wallS = secondsSince(t1);

    phase("fleet.drain", true);
    run.workers = reapWorkers(pids, done ? 30.0 : 0.0);
    run.leases = coordinator.leaseTable().stats();
    for (const auto &[name, value] :
         coordinator.registry().counterValues())
        if (name == "fleet.results.batches")
            run.commits = static_cast<double>(value);
    const std::vector<RunMetrics> results = coordinator.results();
    coordinator.stop();
    phase("fleet.drain", false);
    run.coordCpuS = cpuSeconds(RUSAGE_SELF) - cpu0;
    run.rep.cpuS = run.coordCpuS + run.workers.workerCpuS;

    collect(run.rep, sweep.request.jobs(), results);
    if (!done)
        run.rep.failed = run.rep.attempted;
    run.rep.failed += run.workers.badExits;
    return run;
}

Rep
runOnce(const Setup &s, std::uint64_t seed, const std::string &work,
        const std::string &workerBin)
{
    if (s.name == "cold_quickstart")
        return runColdQuickstart(s, seed);
    if (s.name == "fleet_sweep")
        return runFleet(s, seed, work, workerBin,
                        [](const char *, bool) {})
            .rep;
    return runSweep(s, seed);
}

// --- Output helpers. ---

JsonValue
numbers(const std::vector<double> &values)
{
    JsonValue out = JsonValue::array();
    for (double v : values)
        out.push(v);
    return out;
}

JsonValue
bodiesJson(const Rep &rep)
{
    JsonValue out = JsonValue::object();
    for (const auto &[key, body] : rep.bodies)
        out.set(key, body);
    return out;
}

/** Paper-claim figures over the Table-4 grid (paper_sweep). */
JsonValue
paperClaims(const Rep &rep)
{
    // Per policy, in Table 4 workload order whatever the job order
    // was: relativeThroughput pairs runs by index.
    std::map<std::string, std::vector<RunMetrics>> byPolicy;
    for (const Workload &w : table4Workloads())
        for (std::size_t i = 0; i < rep.jobs.size(); ++i)
            if (rep.jobs[i].workload.name == w.name)
                byPolicy[rep.jobs[i].policy.slug()].push_back(
                    rep.metrics[i]);

    const PolicyConfig stopGo = baselinePolicy();
    const PolicyConfig dvfs{ThrottleMechanism::Dvfs,
                            ControlScope::Distributed,
                            MigrationKind::None};
    const auto &base = byPolicy[stopGo.slug()];
    JsonValue out = JsonValue::object();
    out.set("dvfs_over_stopgo",
            Experiment::relativeThroughput(byPolicy[dvfs.slug()], base));
    std::uint64_t emergencies = 0;
    double peak = 0.0;
    for (const RunMetrics &m : rep.metrics) {
        emergencies += m.emergencies;
        peak = std::max(peak, m.peakTemp);
    }
    out.set("emergencies", emergencies);
    out.set("peak_temp_c", peak);
    out.set("runs", rep.metrics.size());

    // Sensor-based migration at least matches counter-based in every
    // DVFS cell (each scope).
    std::size_t cells = 0, holds = 0;
    for (ControlScope scope :
         {ControlScope::Global, ControlScope::Distributed}) {
        const PolicyConfig sensor{ThrottleMechanism::Dvfs, scope,
                                  MigrationKind::SensorBased};
        const PolicyConfig counter{ThrottleMechanism::Dvfs, scope,
                                   MigrationKind::CounterBased};
        ++cells;
        if (Experiment::relativeThroughput(byPolicy[sensor.slug()],
                                           base) >=
            Experiment::relativeThroughput(byPolicy[counter.slug()],
                                           base))
            ++holds;
    }
    out.set("dvfs_cells", cells);
    out.set("sensor_ge_counter_cells", holds);
    return out;
}

JsonValue
hostContext()
{
    const svc::BuildInfo build = svc::buildInfo();
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);)
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    JsonValue host = JsonValue::object();
    host.set("nproc", hostThreads());
    host.set("cpu_model", cpu);
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("compiler", build.compiler);
    host.set("simd", build.simd);
    host.set("git_describe", build.version);
    host.set("batch_width", Experiment::batchWidth());
    return host;
}

std::vector<std::string>
traceFiles(const std::string &dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        if (entry.path().extension() == ".trace")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

// --- Untraced mode. ---

JsonValue
measure(const Setup &s, std::uint64_t seed, double seconds,
        const std::string &work, const std::string &workerBin)
{
    std::vector<double> setup, wall, cpu;
    // An untimed first repetition warms caches, page cache and clock
    // speed; every timed one must reproduce its outputs byte for byte.
    Rep first = runOnce(s, seed, work, workerBin);
    std::size_t attempted = first.attempted, failed = first.failed;
    double workerRss = first.workerRssMb;
    // The reference runs on as many threads as the workload keeps busy.
    HostReference reference(s.name == "cold_quickstart" ? 1
                                                        : hostThreads());
    for (int k = 0; k < kRefSamples; ++k)
        reference.sample();
    const auto t0 = Clock::now();
    for (int i = 0; i == 0 || secondsSince(t0) < seconds; ++i) {
        Rep rep = runOnce(s, seed, work, workerBin);
        for (int k = 0; k < kRefSamples; ++k)
            reference.sample();
        setup.insert(setup.end(), rep.setupS.begin(), rep.setupS.end());
        wall.push_back(rep.wallS);
        cpu.push_back(rep.cpuS);
        attempted += rep.attempted;
        failed += rep.failed;
        workerRss = std::max(workerRss, rep.workerRssMb);
        for (const auto &[key, body] : rep.bodies) {
            auto it = first.bodies.find(key);
            if (it == first.bodies.end() || it->second != body)
                ++failed;
        }
    }

    JsonValue out = JsonValue::object();
    out.set("workload", s.name);
    out.set("host", hostContext());
    out.set("setup_s", numbers(setup));
    out.set("wall_s", numbers(wall));
    out.set("cpu_s", numbers(cpu));
    out.set("ref_cpu_s", numbers(reference.cpuS));
    out.set("ref_wall_s", numbers(reference.wallS));
    out.set("peak_rss_mb", std::max(peakRssMb(), workerRss));
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("bodies", bodiesJson(first));
    if (s.name == "paper_sweep")
        out.set("claims", paperClaims(first));
    if (s.name == "cold_quickstart") {
        JsonValue files = JsonValue::array();
        for (const std::string &f : traceFiles(s.traces.cacheDir))
            files.push(f);
        out.set("trace_files", files);
    }
    return out;
}

// --- Traced mode: spans around every call into a layer. ---

/** In-memory span log written as Chrome trace JSON at the end. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; returns its id. */
    std::uint64_t open(const std::string &name, std::uint64_t parent = 0,
                       std::int64_t job = -1)
    {
        obs::Span s;
        s.spanId = spans_.size() + 1;
        s.parentId = parent;
        s.name = name;
        s.job = job;
        s.startUs = nowUs();
        spans_.push_back(std::move(s));
        return spans_.back().spanId;
    }

    void close(std::uint64_t id)
    {
        obs::Span &s = spans_[id - 1];
        s.durUs = nowUs() - s.startUs;
    }

    /** Record per-call timings summed over many calls as one child
     *  span starting at `startUs` (callers lay such spans back to
     *  back inside their parent). */
    void aggregate(const std::string &name, std::uint64_t parent,
                   std::int64_t job, double startUs, double seconds)
    {
        obs::Span s;
        s.spanId = spans_.size() + 1;
        s.parentId = parent;
        s.name = name;
        s.job = job;
        s.startUs = startUs;
        s.durUs = seconds * 1e6;
        spans_.push_back(std::move(s));
    }

    double startOf(std::uint64_t id) const
    {
        return spans_[id - 1].startUs;
    }

    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    const std::vector<obs::Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<obs::Span> spans_;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name, std::uint64_t parent = 0,
           std::int64_t job = -1)
        : log_(log), id_(log.open(name, parent, job))
    {
    }
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

/** Per-layer counters of one traced run. */
struct LayerStats
{
    double genCalls = 0, genS = 0, genCycles = 0;
    double loadCalls = 0, loadS = 0, traceBytes = 0;
    double chipNodes = 0, chipBuildS = 0, chipDiscS = 0;
    double steps = 0, gatherS = 0, finishS = 0;
    double thermalSteps = 0, thermalS = 0; ///< sequential stepThermal
    double batchLaneSteps = 0, batchS = 0; ///< batched GEMM steps
    double opBytes = 0;
    double migrations = 0, emergencies = 0, peakTemp = 0;
};

double
timed(double &acc, auto &&fn)
{
    const auto t0 = Clock::now();
    fn();
    const double s = secondsSince(t0);
    acc += s;
    return s;
}

/** One lane of the traced sweep engine. */
struct TracedLane
{
    std::size_t job = 0;
    std::unique_ptr<DtmSimulator> sim;
    double gatherS = 0, thermalS = 0, finishS = 0, setupS = 0;
};

/**
 * The traced sweep engine: what Experiment::run does for a job list,
 * on one thread, with every phase call timed. Width 1 steps each job
 * sequentially (stepThermal); a wider engine lock-steps lanes through
 * one BatchedZohPropagator::step like BatchRunner.
 */
std::vector<RunMetrics>
tracedSweep(SpanLog &log, std::uint64_t parent, Experiment &experiment,
            std::shared_ptr<const ChipModel> chip, const Setup &s,
            const std::vector<RunJob> &jobs, std::size_t width,
            LayerStats &st)
{
    std::vector<RunMetrics> results(jobs.size());
    std::vector<TracedLane> lanes;
    std::unique_ptr<BatchedZohPropagator> batched;
    std::vector<ZohPropagator *> solvers;
    std::vector<const Vector *> gathered;
    std::size_t next = 0;
    double cursor = log.startOf(parent);
    auto emit = [&](TracedLane &lane) {
        const auto job = static_cast<std::int64_t>(lane.job);
        st.gatherS += lane.gatherS;
        st.finishS += lane.finishS;
        for (auto [name, secs] :
             {std::pair<const char *, double>{"sim.setup", lane.setupS},
              {"step.gather", lane.gatherS},
              {"step.thermal", lane.thermalS},
              {"step.finish", lane.finishS}}) {
            log.aggregate(name, parent, job, cursor, secs);
            cursor += secs * 1e6;
        }
    };

    for (;;) {
        for (std::size_t i = 0; i < lanes.size();) {
            TracedLane &lane = lanes[i];
            if (lane.sim->done()) {
                timed(lane.setupS, [&] {
                    results[lane.job] = lane.sim->finishRun();
                });
                const RunMetrics &m = results[lane.job];
                st.migrations += static_cast<double>(m.migrations);
                st.emergencies += static_cast<double>(m.emergencies);
                st.peakTemp = std::max(st.peakTemp, m.peakTemp);
                emit(lane);
                lanes.erase(lanes.begin() + static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
        while (next < jobs.size() && lanes.size() < width) {
            TracedLane lane;
            lane.job = next;
            const RunJob &job = jobs[next++];
            timed(lane.setupS, [&] {
                std::vector<std::shared_ptr<const PowerTrace>> traces;
                const std::size_t n =
                    std::max<std::size_t>(job.workload.benchmarks.size(),
                                          chip->numCores());
                for (std::size_t k = 0; k < n; ++k)
                    traces.push_back(experiment.trace(
                        job.workload.benchmarks[k %
                                                job.workload.benchmarks
                                                    .size()]));
                lane.sim = std::make_unique<DtmSimulator>(
                    chip, job.policy, s.config, std::move(traces));
                lane.sim->beginRun();
            });
            lanes.push_back(std::move(lane));
        }
        if (lanes.empty())
            break;

        if (width == 1) {
            TracedLane &lane = lanes.front();
            timed(lane.gatherS, [&] { lane.sim->gatherPowers(); });
            st.thermalS +=
                timed(lane.thermalS, [&] { lane.sim->stepThermal(); });
            ++st.thermalSteps;
            timed(lane.finishS, [&] { lane.sim->finishStep(); });
            ++st.steps;
            continue;
        }
        solvers.clear();
        gathered.clear();
        for (TracedLane &lane : lanes)
            timed(lane.gatherS, [&] {
                gathered.push_back(&lane.sim->gatherPowers());
                solvers.push_back(&lane.sim->propagator());
            });
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < lanes.size(); ++i)
            solvers[i]->setInputs(*gathered[i]);
        if (!batched)
            batched = std::make_unique<BatchedZohPropagator>(
                solvers.front()->discretization(), width);
        batched->step(solvers);
        const double stepS = secondsSince(t0);
        st.batchS += stepS;
        st.batchLaneSteps += static_cast<double>(lanes.size());
        for (TracedLane &lane : lanes) {
            lane.thermalS += stepS / static_cast<double>(lanes.size());
            timed(lane.finishS, [&] { lane.sim->finishStep(); });
        }
        st.steps += static_cast<double>(lanes.size());
    }
    return results;
}

/** Cycles one trace generation simulates (from the config). */
double
traceCycles(const TraceBuilderConfig &cfg)
{
    return static_cast<double>(cfg.numIntervals) *
        static_cast<double>(cfg.intervalCycles) * cfg.sampledShare +
        static_cast<double>(cfg.warmupCycles);
}

JsonValue
traced(const Setup &s, std::uint64_t seed, const std::string &work,
       const std::string &workerBin)
{
    JsonValue layer = JsonValue::object();
    LayerStats st;
    SpanLog log;
    Rep rep;
    const std::vector<RunJob> jobs = permuted(s, seed);
    double tracedS = 0.0;

    // Untraced reference: one normal repetition gives the pool
    // utilisation; the traced run's wall is compared against the same
    // calls made on one thread without spans.
    const auto u0 = Clock::now();
    const Rep ref = runOnce(s, seed, work, workerBin);
    double untracedS = secondsSince(u0);
    layer.set("pool.util",
              ref.cpuS / (ref.wallS * static_cast<double>(hostThreads())));
    const bool sweep = s.name == "paper_sweep" || s.name == "mesh16_sweep";
    if (sweep) {
        RunRequest request(jobs);
        request.threads(1);
        if (!s.floorplan.empty())
            request.floorplan(s.floorplan);
        const auto t1 = Clock::now();
        Experiment experiment(s.config, s.traces);
        experiment.run(request);
        untracedS = secondsSince(t1);
    }

    if (s.name == "fleet_sweep") {
        const auto t0 = Clock::now();
        std::map<std::string, std::uint64_t> open;
        FleetRun run = runFleet(s, seed, work, workerBin,
                                [&](const char *name, bool begin) {
                                    if (begin)
                                        open[name] = log.open(name);
                                    else
                                        log.close(open[name]);
                                });
        rep = std::move(run.rep);

        // The journal layer replayed alone: recordAll over the sweep's
        // results in commit-sized batches, as the coordinator does.
        double recordS = 0.0, bytes = 0.0;
        {
            Scoped span(log, "journal.record");
            const std::string path = work + "/replay.journal";
            std::error_code ec;
            fs::remove(path, ec);
            SweepJournal journal(path, "0000000000000000",
                                 rep.jobs.size());
            const std::size_t batch = Experiment::batchWidth();
            for (std::size_t lo = 0; lo < rep.jobs.size(); lo += batch) {
                std::vector<std::pair<std::size_t, RunMetrics>> entries;
                for (std::size_t i = lo;
                     i < std::min(rep.jobs.size(), lo + batch); ++i)
                    entries.emplace_back(i, rep.metrics[i]);
                timed(recordS, [&] { journal.recordAll(entries); });
                bytes += static_cast<double>(fs::file_size(path));
            }
        }
        tracedS = secondsSince(t0);
        layer.set("journal.record_s", recordS);
        layer.set("journal.bytes_written", bytes);
        layer.set("fleet.coord_cpu_s", run.coordCpuS);
        layer.set("fleet.worker_cpu_s", run.workers.workerCpuS);
        layer.set("fleet.worker_idle_frac",
                  1.0 - run.workers.workerCpuS /
                          (static_cast<double>(run.workerCount) *
                           rep.wallS));
        layer.set("fleet.leases", run.leases.leasesGranted);
        layer.set("fleet.commits", run.commits);
        layer.set("fleet.requeues", run.leases.jobsRequeued);
        layer.set("fleet.duplicates", run.leases.duplicateCommits);
        for (const RunMetrics &m : rep.metrics) {
            st.steps += static_cast<double>(
                m.duration > 0 ? s.config.numSteps() : 0);
            st.migrations += static_cast<double>(m.migrations);
            st.emergencies += static_cast<double>(m.emergencies);
            st.peakTemp = std::max(st.peakTemp, m.peakTemp);
        }
    } else {
        const bool cold = s.name == "cold_quickstart";
        std::error_code ec;
        if (cold)
            fs::remove_all(s.traces.cacheDir, ec);
        const auto t0 = Clock::now();
        std::unique_ptr<Experiment> experiment;
        {
            Scoped span(log, "chip.build");
            timed(st.chipBuildS, [&] {
                experiment =
                    std::make_unique<Experiment>(s.config, s.traces);
                if (!s.floorplan.empty())
                    experiment->chipFor(s.floorplan);
            });
        }
        std::shared_ptr<const ChipModel> chip =
            s.floorplan.empty() ? experiment->chip()
                                : experiment->chipFor(s.floorplan);
        st.chipNodes = static_cast<double>(chip->network().numNodes());
        {
            // The chip's matrix exponential, timed alone.
            Scoped span(log, "chip.disc");
            timed(st.chipDiscS, [&] {
                ZohPropagator::makeDiscretization(chip->network(),
                                                  s.config.stepSeconds());
            });
        }
        // cold_quickstart generates every trace; the others load them
        // from the primed cache.
        for (const std::string &bench : benchmarksOf(jobs)) {
            Scoped span(log, cold ? "trace.gen" : "trace.load");
            timed(cold ? st.genS : st.loadS,
                  [&] { experiment->trace(bench); });
            if (cold) {
                ++st.genCalls;
                st.genCycles += traceCycles(s.traces);
            } else {
                ++st.loadCalls;
            }
        }
        if (!cold)
            for (const std::string &file : traceFiles(s.traces.cacheDir))
                st.traceBytes += static_cast<double>(fs::file_size(file));
        const std::size_t width =
            cold ? 1 : std::max<std::size_t>(1, Experiment::batchWidth());
        std::vector<RunMetrics> results;
        {
            Scoped span(log, "sweep");
            results = tracedSweep(log, span.id(), *experiment, chip, s,
                                  jobs, width, st);
        }
        if (!cold) {
            // One job stepped sequentially: the unbatched thermal step.
            Scoped span(log, "probe.sequential");
            std::vector<std::shared_ptr<const PowerTrace>> traces;
            const Workload &w = jobs.front().workload;
            for (std::size_t k = 0;
                 k < std::max<std::size_t>(w.benchmarks.size(),
                                           chip->numCores());
                 ++k)
                traces.push_back(experiment->trace(
                    w.benchmarks[k % w.benchmarks.size()]));
            DtmSimulator sim(chip, jobs.front().policy, s.config,
                             std::move(traces));
            sim.beginRun();
            for (int k = 0; k < 2000 && !sim.done(); ++k) {
                sim.gatherPowers();
                timed(st.thermalS, [&] { sim.stepThermal(); });
                ++st.thermalSteps;
                sim.finishStep();
            }
        }
        tracedS = secondsSince(t0);
        st.opBytes = static_cast<double>(chip->network().numNodes()) *
            static_cast<double>(
                chip->makeSolver(s.config.stepSeconds())
                    ->augmentedState()
                    .size()) *
            sizeof(double);
        collect(rep, jobs, results);
    }

    const auto perStepNs = [](double secs, double steps) {
        return steps > 0 ? secs / steps * 1e9 : 0.0;
    };
    layer.set("trace.gen_calls", st.genCalls);
    layer.set("trace.gen_s", st.genS);
    layer.set("trace.gen_mcycles_per_s",
              st.genS > 0 ? st.genCycles / st.genS / 1e6 : 0.0);
    layer.set("trace.load_calls", st.loadCalls);
    layer.set("trace.load_s", st.loadS);
    layer.set("trace.bytes", st.traceBytes);
    layer.set("chip.nodes", st.chipNodes);
    layer.set("chip.build_s", st.chipBuildS);
    layer.set("chip.disc_s", st.chipDiscS);
    layer.set("step.gather_ns", perStepNs(st.gatherS, st.steps));
    layer.set("step.thermal_ns", perStepNs(st.thermalS, st.thermalSteps));
    layer.set("batch.step_ns_per_lane",
              perStepNs(st.batchS, st.batchLaneSteps));
    layer.set("thermal.op_bytes", st.opBytes);
    layer.set("step.finish_ns", perStepNs(st.finishS, st.steps));
    layer.set("sim.steps", st.steps);
    layer.set("sim.migrations", st.migrations);
    layer.set("sim.emergencies", st.emergencies);
    layer.set("sim.peak_temp_c", st.peakTemp);
    layer.set("untraced_s", untracedS);
    layer.set("traced_s", tracedS);

    const std::string tracePath = work + "/trace-" + s.name + ".json";
    if (!obs::writeChromeTraceSpans(tracePath, {{"perfbench", log.spans()}}))
        fatal("cannot write ", tracePath);

    JsonValue out = JsonValue::object();
    out.set("workload", s.name);
    out.set("host", hostContext());
    out.set("layers", layer);
    out.set("trace_path", tracePath);
    out.set("peak_rss_mb", peakRssMb());
    out.set("attempted", rep.attempted);
    out.set("failed", rep.failed);
    out.set("bodies", bodiesJson(rep));
    return out;
}

// --- Priming (not timed). ---

void
prime(const std::string &work)
{
    std::vector<std::string> full;
    for (const Workload &w : table4Workloads())
        for (const std::string &b : w.benchmarks)
            if (std::find(full.begin(), full.end(), b) == full.end())
                full.push_back(b);
    TraceBuilderConfig fullCfg;
    fullCfg.cacheDir = work + "/traces-full";
    Experiment(DtmConfig{}, fullCfg).prefetchTraces(full, hostThreads());

    std::vector<std::string> all;
    for (const BenchmarkProfile &p : spec2000Profiles())
        all.push_back(p.name);
    Experiment(DtmConfig{}, fastTraces(work + "/traces-fast"))
        .prefetchTraces(all, hostThreads());
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: coolcmp_bench --prime --work DIR\n"
                 "       coolcmp_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR --worker PATH "
                 "--out FILE\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setDefaultLogLevel(LogLevel::Warn);
    std::string workload, work, workerBin, outPath;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    bool primeOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--prime")
            primeOnly = true;
        else if (arg == "--workload")
            workload = next();
        else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--seconds")
            seconds = std::stod(next());
        else if (arg == "--trace")
            trace = std::stoi(next());
        else if (arg == "--work")
            work = next();
        else if (arg == "--worker")
            workerBin = next();
        else if (arg == "--out")
            outPath = next();
        else
            usage();
    }
    if (work.empty())
        usage();
    fs::create_directories(work);
    if (primeOnly) {
        prime(work);
        return 0;
    }
    if (workload.empty() || outPath.empty() || workerBin.empty())
        usage();

    const Setup s = makeSetup(workload, work);
    const JsonValue result = trace ? traced(s, seed, work, workerBin)
                                   : measure(s, seed, seconds, work,
                                             workerBin);
    std::ofstream out(outPath);
    out << svc::jsonToString(result) << "\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "coolcmp_bench: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    return 0;
}
