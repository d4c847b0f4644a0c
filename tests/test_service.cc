/**
 * @file
 * Tests for the sweep service: protocol framing, JobSpec round-trip
 * and validation, grid planning (planSweep/planJob), cell-mode
 * execution (runSweepCells merge identity, progress/cancel hooks),
 * the worker entry point, the daemon end to end over a real socket,
 * and multi-process ResultStore sharing on one cache directory.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/tensordash.hh"
#include "service/daemon.hh"
#include "service/job_spec.hh"
#include "service/planner.hh"
#include "service/protocol.hh"

namespace tensordash {
namespace {

using namespace tensordash::service;

/** Two small conv models with unequal layer counts (the
 * test_result_store pattern), so shard boundaries never align with
 * model boundaries. */
ModelProfile
tinyModel()
{
    ModelProfile m;
    m.name = "tiny";
    m.batch = 1;
    m.sparsity.act = 0.6;
    m.sparsity.grad = 0.5;
    LayerSpec l;
    l.name = "c1";
    l.in_c = 3;
    l.in_hw = 8;
    l.out_c = 4;
    l.kernel = 3;
    l.pad = 1;
    m.layers.push_back(l);
    l.name = "c2";
    l.in_c = 4;
    m.layers.push_back(l);
    return m;
}

ModelProfile
tinyModelB()
{
    ModelProfile m = tinyModel();
    m.name = "tinyB";
    m.sparsity.act = 0.4;
    LayerSpec l = m.layers.back();
    l.name = "c3";
    l.stride = 2;
    l.pad = 0;
    m.layers.push_back(l);
    return m;
}

/** Fast configuration; @p seed keeps each test's task keys disjoint
 * from every other test's, so the process-wide memo cannot leak
 * state between tests. */
RunConfig
svcConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0;
    return cfg;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.models = {tinyModel(), tinyModelB()};
    return spec;
}

/** Serialized sweep content with the cache telemetry zeroed. */
std::vector<uint8_t>
contentBytes(SweepResult s)
{
    s.cache_hits = 0;
    s.simulated = 0;
    s.estimated = 0;
    return s.serialize();
}

/** Fresh (empty, created) temp directory. */
std::string
freshDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** A small, fast, zoo-valid job (JobSpec only names zoo models). */
JobSpec
tinyZooJob()
{
    JobSpec job;
    job.models = {"NeuMF"};
    job.batch_override = 4;
    job.max_sampled_macs = 20000;
    return job;
}

// --------------------------------------------------------------------
// Protocol framing
// --------------------------------------------------------------------

TEST(Protocol, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<uint8_t> payload = {1, 2, 3, 0xff, 0};
    ASSERT_TRUE(sendFrame(fds[0], MsgType::JobRequest, payload));
    Frame frame;
    ASSERT_TRUE(recvFrame(fds[1], &frame));
    EXPECT_EQ(frame.type, MsgType::JobRequest);
    EXPECT_EQ(frame.payload, payload);

    // Empty payloads are legal (a keepalive-style Progress would be).
    ASSERT_TRUE(sendFrame(fds[1], MsgType::Progress, {}));
    ASSERT_TRUE(recvFrame(fds[0], &frame));
    EXPECT_EQ(frame.type, MsgType::Progress);
    EXPECT_TRUE(frame.payload.empty());
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(Protocol, ProgressMsgRoundTrip)
{
    ProgressMsg in;
    in.total_cells = 261;
    in.warm_cells = 40;
    in.done_tasks = 9;
    in.total_tasks = 87;
    in.simulated = 17;
    in.shards_total = 4;
    in.shards_done = 2;
    ByteWriter w;
    in.serialize(w);
    ProgressMsg out;
    ByteReader r(w.data());
    ASSERT_TRUE(out.deserialize(r));
    EXPECT_EQ(out.total_cells, in.total_cells);
    EXPECT_EQ(out.warm_cells, in.warm_cells);
    EXPECT_EQ(out.done_tasks, in.done_tasks);
    EXPECT_EQ(out.total_tasks, in.total_tasks);
    EXPECT_EQ(out.simulated, in.simulated);
    EXPECT_EQ(out.shards_total, in.shards_total);
    EXPECT_EQ(out.shards_done, in.shards_done);
}

TEST(Protocol, ErrorPayloadRoundTrip)
{
    std::vector<uint8_t> payload = errorPayload("bad job: reasons");
    EXPECT_EQ(parseErrorPayload(payload), "bad job: reasons");
}

TEST(Protocol, RecvRejectsGarbageAndTruncation)
{
    // Garbage magic: reject immediately.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const uint8_t junk[16] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_EQ(::send(fds[0], junk, sizeof(junk), 0),
              (ssize_t)sizeof(junk));
    Frame frame;
    EXPECT_FALSE(recvFrame(fds[1], &frame));
    ::close(fds[0]);
    ::close(fds[1]);

    // A valid header whose payload never arrives: the peer closing
    // mid-frame must read as failure, not as a short payload.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ByteWriter w;
    w.u32(kProtocolMagic);
    w.u32(kProtocolVersion);
    w.u8((uint8_t)MsgType::JobRequest);
    w.u32(100); // promises 100 payload bytes, sends none
    const std::vector<uint8_t> &hdr = w.data();
    ASSERT_EQ(::send(fds[0], hdr.data(), hdr.size(), 0),
              (ssize_t)hdr.size());
    ::close(fds[0]);
    EXPECT_FALSE(recvFrame(fds[1], &frame));
    ::close(fds[1]);
}

TEST(Protocol, CellsFileRoundTrip)
{
    std::vector<size_t> cells = {0, 5, 17, 12345678};
    std::vector<uint8_t> bytes = serializeCells(cells);
    std::vector<size_t> out;
    ASSERT_TRUE(deserializeCells(bytes, &out));
    EXPECT_EQ(out, cells);

    // Truncation and trailing junk both fail parsing.
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 1);
    EXPECT_FALSE(deserializeCells(cut, &out));
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(deserializeCells(padded, &out));

    // A count whose byte size wraps to the 8 bytes that follow it.
    ByteWriter w;
    w.u64((uint64_t{1} << 61) + 1);
    w.u64(0);
    EXPECT_FALSE(deserializeCells(w.data(), &out));
}

// --------------------------------------------------------------------
// JobSpec
// --------------------------------------------------------------------

TEST(JobSpec, SerializeRoundTrip)
{
    JobSpec in;
    in.models = {"AlexNet", "SNLI"};
    in.progress_points = {0.0, 0.5, 1.0};
    in.progress = 0.25;
    in.seed = 99;
    in.phase = 1;
    in.fidelity = 1;
    in.memory_model = 1;
    in.batch_override = 8;
    in.max_sampled_macs = 4321;
    in.axes = {{AxisKind::Rows, {2, 4, 8}},
               {AxisKind::Gating, {0, 1}}};
    EXPECT_EQ(in.validate(), "");

    ByteWriter w;
    in.serialize(w);
    JobSpec out;
    ByteReader r(w.data());
    ASSERT_TRUE(out.deserialize(r));
    ByteWriter w2;
    out.serialize(w2);
    EXPECT_EQ(w.data(), w2.data());
    EXPECT_EQ(out.models, in.models);
    EXPECT_EQ(out.axes.size(), in.axes.size());
}

TEST(JobSpec, DeserializeRejectsCorruption)
{
    JobSpec in = tinyZooJob();
    ByteWriter w;
    in.serialize(w);
    JobSpec out;
    {
        // Truncated buffer.
        std::vector<uint8_t> cut(w.data().begin(),
                                 w.data().end() - 1);
        ByteReader r(cut);
        EXPECT_FALSE(out.deserialize(r));
    }
    {
        // Wrong version word.
        std::vector<uint8_t> bad = w.data();
        bad[0] ^= 0xff;
        ByteReader r(bad);
        EXPECT_FALSE(out.deserialize(r));
    }
}

TEST(JobSpec, ValidateRejectsLoudly)
{
    {
        JobSpec j;
        EXPECT_NE(j.validate(), ""); // no models
    }
    {
        JobSpec j = tinyZooJob();
        j.models.push_back("NoSuchNet");
        EXPECT_NE(j.validate().find("NoSuchNet"), std::string::npos);
    }
    {
        JobSpec j = tinyZooJob();
        j.progress = 1.5;
        EXPECT_NE(j.validate(), "");
    }
    {
        JobSpec j = tinyZooJob();
        j.phase = 9;
        EXPECT_NE(j.validate(), "");
    }
    {
        JobSpec j = tinyZooJob();
        j.axes = {{(AxisKind)99, {1}}};
        EXPECT_NE(j.validate(), "");
    }
    {
        JobSpec j = tinyZooJob();
        j.axes = {{AxisKind::Rows, {}}};
        EXPECT_NE(j.validate(), "");
    }
    {
        JobSpec j = tinyZooJob();
        j.axes = {{AxisKind::Rows, {0}}}; // below range
        EXPECT_NE(j.validate().find("rows"), std::string::npos);
    }
    {
        // Deeper than any staging buffer the simulator can build.
        JobSpec j = tinyZooJob();
        j.axes = {{AxisKind::Depth, {9}}};
        EXPECT_NE(j.validate().find("depth"), std::string::npos);
        j.axes = {{AxisKind::Depth, {8}}};
        EXPECT_EQ(j.validate(), "");
    }
    {
        JobSpec j = tinyZooJob();
        j.axes = {{AxisKind::Gating, {2}}};
        EXPECT_NE(j.validate(), "");
    }
}

TEST(JobSpec, ToSweepSpecResolvesModelsAndAxes)
{
    JobSpec j = tinyZooJob();
    j.axes = {{AxisKind::Rows, {2, 4}}, {AxisKind::Phase, {0, 1}}};
    ASSERT_EQ(j.validate(), "");
    SweepSpec spec = j.toSweepSpec();
    ASSERT_EQ(spec.models.size(), 1u);
    EXPECT_EQ(spec.models[0].name, "NeuMF");
    EXPECT_EQ(spec.axes.size(), 2u);
}

// --------------------------------------------------------------------
// Grid planning and cell-mode execution
// --------------------------------------------------------------------

TEST(PlanSweep, EnumeratesEveryCellInOrder)
{
    ModelRunner runner(svcConfig(9101));
    SweepSpec spec = tinySpec();
    std::vector<GridCellInfo> plan = runner.planSweep(spec);

    // Shell sweep gives the authoritative cell count + fingerprint.
    SweepResult shell = runner.runSweepCells(spec, {});
    ASSERT_EQ(plan.size(), shell.cellCount());
    EXPECT_FALSE(shell.complete());
    EXPECT_EQ(shell.presentCellCount(), 0u);

    std::set<size_t> slots;
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan[i].cell, i);
        EXPECT_LT(plan[i].op_index, (uint32_t)kMaxPhaseOps);
        EXPECT_GT(plan[i].est_cost, 0.0);
        slots.insert(plan[i].slot);
    }
    EXPECT_EQ(slots.size(), shell.taskCount());

    // Planning is pure: a second plan is identical.
    std::vector<GridCellInfo> again = runner.planSweep(spec);
    ASSERT_EQ(again.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(again[i].key.value, plan[i].key.value);
        EXPECT_EQ(again[i].slot, plan[i].slot);
    }
}

TEST(PlanSweep, EstimateCellsCarryUnitCost)
{
    // An estimate cell's work is one closed-form evaluation whatever
    // its layer, so planning prices it at 1 instead of spending an
    // estimateSimCost call on a simulation that never runs.
    RunConfig cfg = svcConfig(9103);
    cfg.fidelity = Fidelity::Estimate;
    std::vector<GridCellInfo> plan = ModelRunner(cfg).planSweep(tinySpec());
    ASSERT_FALSE(plan.empty());
    for (const GridCellInfo &c : plan) {
        EXPECT_EQ(c.est_cost, 1.0);
        EXPECT_EQ(c.synth_cost, 0.0);
    }

    // Its exact twin: every exact cell carries its layer's synthesis
    // volume, equal across a group (here a layer's two row counts).
    SweepSpec spec = tinySpec();
    spec.axes = {axis("rows", {2, 4}, [](RunConfig &c, int rows) {
        c.accel.tile.rows = rows;
    })};
    plan = ModelRunner(svcConfig(9103)).planSweep(spec);
    std::map<size_t, double> group_synth;
    for (const GridCellInfo &c : plan) {
        EXPECT_GT(c.synth_cost, 0.0);
        auto it = group_synth.try_emplace(c.group, c.synth_cost).first;
        EXPECT_EQ(it->second, c.synth_cost) << "cell " << c.cell;
    }
    EXPECT_EQ(group_synth.size(), plan.size() / 6); // 2 variants x 3 ops
}

TEST(RunSweepCells, InterleavedShardsMergeToIdentity)
{
    ModelRunner runner(svcConfig(9102));
    SweepSpec spec = tinySpec();
    SweepResult shell = runner.runSweepCells(spec, {});
    const size_t cells = shell.cellCount();
    ASSERT_GT(cells, 3u);

    // Round-robin assignment: every layer task's op cells land on
    // different shards, so each shard carries partial present masks —
    // the below-task-grain case.
    std::vector<std::vector<size_t>> parts(3);
    for (size_t c = 0; c < cells; ++c)
        parts[c % 3].push_back(c);

    SweepResult merged = shell;
    merged.merge(runner.runSweepCells(spec, parts[0]));
    EXPECT_FALSE(merged.complete());
    EXPECT_GT(merged.presentCellCount(), 0u);
    EXPECT_LT(merged.presentCount(), merged.taskCount());
    merged.merge(runner.runSweepCells(spec, parts[1]));
    merged.merge(runner.runSweepCells(spec, parts[2]));
    ASSERT_TRUE(merged.complete());

    // The unsharded sweep (warm from the memo) must hold the same
    // bytes cell for cell.
    SweepResult direct = runner.runSweep(spec);
    EXPECT_EQ(contentBytes(merged), contentBytes(direct));
}

TEST(RunHooks, ProgressReportsAndCancelSkips)
{
    ModelRunner runner(svcConfig(9103));
    SweepSpec spec = tinySpec();

    size_t calls = 0;
    SweepProgress last;
    RunHooks hooks;
    hooks.progress = [&](const SweepProgress &p) {
        ++calls;
        last = p;
    };
    SweepResult sweep = runner.runSweep(spec, {}, hooks);
    ASSERT_TRUE(sweep.complete());
    EXPECT_EQ(calls, sweep.taskCount());
    EXPECT_EQ(last.done_tasks, sweep.taskCount());
    EXPECT_EQ(last.total_tasks, sweep.taskCount());
    EXPECT_EQ(last.simulated, sweep.simulated);

    // A pre-set cancel flag skips every task body: the sweep comes
    // back as an all-absent shell (fresh seed so nothing is warm).
    ModelRunner cold(svcConfig(9104));
    std::atomic<bool> stop{true};
    RunHooks cancel_hooks;
    cancel_hooks.cancel = &stop;
    SweepResult cancelled = cold.runSweep(spec, {}, cancel_hooks);
    EXPECT_FALSE(cancelled.complete());
    EXPECT_EQ(cancelled.presentCellCount(), 0u);
    EXPECT_EQ(cancelled.simulated, 0u);
}

TEST(PlanJob, PartitionsColdCellsAndSplitsGiants)
{
    ModelRunner runner(svcConfig(9105));
    SweepSpec spec = tinySpec();
    std::vector<GridCellInfo> plan = runner.planSweep(spec);

    // Cold store: every cell must land in exactly one shard.
    ShardPlan sp = planJob(plan, "", 2);
    EXPECT_TRUE(sp.warm_cells.empty());
    std::set<size_t> seen;
    for (const ShardAssignment &s : sp.shards) {
        EXPECT_TRUE(std::is_sorted(s.cells.begin(), s.cells.end()));
        for (size_t c : s.cells)
            EXPECT_TRUE(seen.insert(c).second) << "cell " << c
                                               << " double-assigned";
    }
    EXPECT_EQ(seen.size(), plan.size());
    EXPECT_LE(sp.shards.size(), 2u);

    // With one shard per cell the per-shard target falls below every
    // multi-cell synthesis group, so the planner must split a giant
    // into its op cells.
    ShardPlan fine = planJob(plan, "", plan.size());
    EXPECT_GE(fine.split_tasks, 1u);
    size_t fine_cells = 0;
    for (const ShardAssignment &s : fine.shards)
        fine_cells += s.cells.size();
    EXPECT_EQ(fine_cells, plan.size());

    // One pricing rule, split or whole: a shard costs its cells'
    // estimated simulation plus one synthesis of every group it holds,
    // since its worker synthesizes each of those layers once.
    std::map<size_t, double> group_synth;
    for (const GridCellInfo &c : plan)
        group_synth[c.group] = std::max(group_synth[c.group], c.synth_cost);
    for (const ShardAssignment &s : fine.shards) {
        double expected = 0.0;
        std::set<size_t> held;
        for (size_t c : s.cells) {
            expected += plan[c].est_cost;
            if (held.insert(plan[c].group).second)
                expected += group_synth[plan[c].group];
        }
        EXPECT_NEAR(s.cost, expected, 1e-9 * expected);
    }

    // Determinism: same plan, same cache state, same shards.
    ShardPlan again = planJob(plan, "", 2);
    ASSERT_EQ(again.shards.size(), sp.shards.size());
    for (size_t s = 0; s < sp.shards.size(); ++s)
        EXPECT_EQ(again.shards[s].cells, sp.shards[s].cells);
}

TEST(PlanJob, KeepsEachSynthesisGroupOnOneShard)
{
    // fig17's grid: the paper suite at five PE-row counts, so each of
    // its 87 layers is one synthesis group of five slots.  Planning
    // only; nothing simulates.
    JobSpec job;
    for (const ModelProfile &m : ModelZoo::paperModels())
        job.models.push_back(m.name);
    job.seed = 9108;
    job.max_sampled_macs = 250000;
    job.axes = {{AxisKind::Rows, {1, 2, 4, 8, 16}}};
    ASSERT_EQ(job.validate(), "");
    const std::vector<GridCellInfo> plan =
        ModelRunner(job.baseConfig()).planSweep(job.toSweepSpec());
    std::set<size_t> groups;
    for (const GridCellInfo &c : plan)
        groups.insert(c.group);
    ASSERT_EQ(groups.size(), 87u);

    // Each group lands on one shard, so the workers together
    // synthesize every layer once.
    for (size_t max_shards : {2u, 4u}) {
        ShardPlan sp = planJob(plan, "", max_shards);
        EXPECT_TRUE(sp.warm_cells.empty());
        EXPECT_EQ(sp.shards.size(), max_shards);
        std::set<std::pair<size_t, size_t>> placed; // (group, shard)
        for (size_t s = 0; s < sp.shards.size(); ++s)
            for (size_t c : sp.shards[s].cells)
                placed.insert({plan[c].group, s});
        EXPECT_EQ(placed.size(), groups.size()) << max_shards << " shards";
        EXPECT_EQ(sp.split_tasks, 0u);
    }
}

TEST(PlanJob, WarmCacheNeedsNoShards)
{
    RunConfig cfg = svcConfig(9106);
    cfg.cache_dir = freshDir("svc_warm_plan");
    ModelRunner runner(cfg);
    SweepSpec spec = tinySpec();
    ASSERT_TRUE(runner.runSweep(spec).complete());

    std::vector<GridCellInfo> plan = runner.planSweep(spec);
    ShardPlan sp = planJob(plan, cfg.cache_dir, 4);
    EXPECT_EQ(sp.warm_cells.size(), plan.size());
    EXPECT_TRUE(sp.shards.empty());

    // Serving the warm cells rebuilds the complete sweep in-process.
    SweepResult warm = runner.runSweepCells(spec, sp.warm_cells);
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.simulated, 0u);
}

// --------------------------------------------------------------------
// Worker entry point
// --------------------------------------------------------------------

TEST(Worker, RunsShardThenCancelledRunWritesShell)
{
    std::string dir = freshDir("svc_worker");
    JobSpec job = tinyZooJob();
    ByteWriter w;
    job.serialize(w);
    ASSERT_TRUE(writeFileBytes(dir + "/job.bin", w.data()));
    ASSERT_TRUE(writeFileBytes(dir + "/cells.bin",
                               serializeCells({0, 1, 4})));

    WorkerOptions opts;
    opts.job_path = dir + "/job.bin";
    opts.cells_path = dir + "/cells.bin";
    opts.out_path = dir + "/shard.tdsw";
    opts.cache_dir = dir;
    opts.threads = 2;
    ASSERT_EQ(runWorker(opts), 0);

    std::vector<uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(opts.out_path, &bytes));
    SweepResult shard;
    ASSERT_TRUE(SweepResult::deserialize(bytes, &shard));
    EXPECT_EQ(shard.presentCellCount(), 3u);
    EXPECT_FALSE(shard.complete());

    // Corrupt inputs fail loudly, not silently.
    WorkerOptions bad = opts;
    bad.cells_path = dir + "/job.bin"; // not a cell list
    EXPECT_EQ(runWorker(bad), 1);

    // A cancel raised before the run (the first call installed the
    // worker's signal handlers) still writes a valid blob — here the
    // all-absent shell — and reports the cancellation exit code.
    ASSERT_EQ(std::raise(SIGTERM), 0);
    WorkerOptions cancelled = opts;
    cancelled.out_path = dir + "/cancelled.tdsw";
    EXPECT_EQ(runWorker(cancelled), kWorkerExitCancelled);
    ASSERT_TRUE(readFileBytes(cancelled.out_path, &bytes));
    SweepResult partial;
    ASSERT_TRUE(SweepResult::deserialize(bytes, &partial));
    EXPECT_EQ(partial.presentCellCount(), 0u);
    EXPECT_EQ(partial.fingerprint, shard.fingerprint);
}

// --------------------------------------------------------------------
// Daemon end to end
// --------------------------------------------------------------------

/** Submit @p job and read frames until JobResult or Error.  Returns
 * true and fills @p out on a result; fills @p error on an Error. */
bool
submit(const std::string &socket_path, const JobSpec &job,
       SweepResult *out, std::string *error, size_t *progress_frames)
{
    int fd = connectUnix(socket_path);
    if (fd < 0) {
        *error = "connect failed";
        return false;
    }
    ByteWriter w;
    job.serialize(w);
    if (!sendFrame(fd, MsgType::JobRequest, w.data())) {
        ::close(fd);
        *error = "send failed";
        return false;
    }
    Frame frame;
    bool ok = false;
    while (recvFrame(fd, &frame)) {
        if (frame.type == MsgType::Progress) {
            if (progress_frames)
                ++*progress_frames;
            continue;
        }
        if (frame.type == MsgType::JobResult) {
            ok = SweepResult::deserialize(frame.payload, out);
            if (!ok)
                *error = "corrupt JobResult";
        } else {
            *error = parseErrorPayload(frame.payload);
        }
        break;
    }
    ::close(fd);
    return ok;
}

TEST(SweepDaemon, EndToEndInProcessShards)
{
    DaemonOptions opts;
    opts.socket_path = freshDir("svc_sock") + "/d.sock";
    opts.cache_dir = freshDir("svc_daemon_cache");
    opts.workers = 0; // planned shards run in-process
    opts.threads = 2;
    SweepDaemon daemon(opts);
    std::thread server([&] { EXPECT_EQ(daemon.serve(), 0); });

    // Wait for the socket to come up.
    int probe = -1;
    for (int i = 0; i < 500 && probe < 0; ++i) {
        ::usleep(10000);
        probe = connectUnix(opts.socket_path);
    }
    ASSERT_GE(probe, 0) << "daemon never bound its socket";
    ::close(probe);

    JobSpec job = tinyZooJob();
    job.seed = 9107;

    // Cold submission: simulated work, streamed progress, a complete
    // result.
    SweepResult cold;
    std::string error;
    size_t progress_frames = 0;
    ASSERT_TRUE(
        submit(opts.socket_path, job, &cold, &error, &progress_frames))
        << error;
    EXPECT_TRUE(cold.complete());
    EXPECT_GT(cold.simulated, 0u);
    EXPECT_GE(progress_frames, 1u);

    // Repeat submission: every cell warm, no simulation, identical
    // content.
    SweepResult warm;
    ASSERT_TRUE(
        submit(opts.socket_path, job, &warm, &error, nullptr))
        << error;
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());
    EXPECT_EQ(contentBytes(warm), contentBytes(cold));

    // An invalid job draws an Error frame naming the problem, not a
    // dead socket.
    JobSpec bad = job;
    bad.models = {"NoSuchNet"};
    SweepResult unused;
    EXPECT_FALSE(
        submit(opts.socket_path, bad, &unused, &error, nullptr));
    EXPECT_NE(error.find("NoSuchNet"), std::string::npos);

    // Graceful stop: serve() drains, returns 0 (asserted on the
    // server thread) and unlinks the socket.
    SweepDaemon::requestStop();
    server.join();
    EXPECT_FALSE(std::filesystem::exists(opts.socket_path));
}

// --------------------------------------------------------------------
// Multi-process store sharing
// --------------------------------------------------------------------

TEST(MultiProcess, ConcurrentColdRunsShareOneCacheDir)
{
    std::string cache = freshDir("svc_multiproc_cache");
    std::string out = freshDir("svc_multiproc_out");
    const uint64_t seed = 9108;

    // Two child processes race the same cold sweep on one cache dir:
    // atomic temp+rename publication means both must finish with
    // complete, bit-identical results no matter how their entry
    // writes interleave.  (Single-threaded children: the cross-
    // process interleaving is the subject here, in-process
    // concurrency has its own suites.)
    auto spawn = [&](const std::string &blob) {
        pid_t pid = ::fork();
        if (pid != 0)
            return pid;
        RunConfig cfg = svcConfig(seed);
        cfg.cache_dir = cache;
        cfg.threads = 1;
        ModelRunner runner(cfg);
        SweepResult s = runner.runSweep(tinySpec());
        bool ok = s.complete() &&
                  writeFileBytes(blob, contentBytes(s));
        ::_exit(ok ? 0 : 1);
    };
    pid_t a = spawn(out + "/a.tdsw");
    pid_t b = spawn(out + "/b.tdsw");
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(a, &status, 0), a);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    ASSERT_EQ(::waitpid(b, &status, 0), b);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    std::vector<uint8_t> blob_a, blob_b;
    ASSERT_TRUE(readFileBytes(out + "/a.tdsw", &blob_a));
    ASSERT_TRUE(readFileBytes(out + "/b.tdsw", &blob_b));
    EXPECT_EQ(blob_a, blob_b);

    // The parent (cold memo) warm-starts purely from the shared disk
    // entries the children left behind: zero simulation, same bytes.
    RunConfig cfg = svcConfig(seed);
    cfg.cache_dir = cache;
    ModelRunner runner(cfg);
    SweepResult warm = runner.runSweep(tinySpec());
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(contentBytes(warm), blob_a);
}

} // namespace
} // namespace tensordash
