// snnmap_perfbench: the end-to-end benchmark that BENCHMARK.json describes.
//
//   snnmap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--reduced] [--trace-out FILE]
//
// Workloads (one process, single-threaded PSO, inputs made from --seed):
//   flow_pso_hd        Fig. 4 flow on Table I "handwritten digit", PSO 60x60
//   flow_pacman_4x500  the same flow on synthetic 4x500, PACMAN
//   cosim_4x500        closed-loop CoSimulator on 4x500, PACMAN mapping
// The flow workloads use scaled_cxquad(graph, 8) in the Table II pressure
// regime (25 cycles/ms, injection jitter 20, buffer depth 4).
//
// --trace 0 measures the end-to-end metrics: set-up is repeated and its
// median reported, one untimed warm-up pass fixes the reference outputs,
// then passes repeat for --seconds and the median pass is reported.
// --trace 1 interleaves untraced passes with passes that record a span
// around every call into a layer (spans.hpp) and reports per-layer self
// times and work counts; the cosim workload also interleaves passes with
// tracing and the congestion monitor switched off.  Every pass is checked
// against the reference; a pass whose check fails counts as failed.
// --reduced shrinks every workload for the self-check.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/digit_recognition.hpp"
#include "apps/registry.hpp"
#include "apps/synthetic.hpp"
#include "bench_common.hpp"
#include "core/framework.hpp"
#include "core/pacman.hpp"
#include "cosim/cosim.hpp"
#include "obs/export.hpp"
#include "obs/stats_json.hpp"
#include "snn/graph.hpp"
#include "snn/simulator.hpp"
#include "spans.hpp"

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#define PERFBENCH_UNFIT_BUILD 1
#endif

namespace {

using namespace snnmap;
using perfbench::SpanRecorder;
using Scope = perfbench::SpanRecorder::Scope;

// ---------------------------------------------------------------- options

enum class Workload : std::uint8_t { kFlowPsoHd, kFlowPacman, kCosim };

struct Options {
  Workload workload = Workload::kFlowPsoHd;
  std::string workload_name;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;
  std::string trace_out;
};

Workload parse_workload(const std::string& name) {
  if (name == "flow_pso_hd") return Workload::kFlowPsoHd;
  if (name == "flow_pacman_4x500") return Workload::kFlowPacman;
  if (name == "cosim_4x500") return Workload::kCosim;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reduced") {
      o.reduced = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = parse_workload(value);
      o.workload_name = value;
      have_workload = true;
    } else if (arg == "--seed") {
      std::size_t used = 0;
      o.seed = std::stoull(value, &used);
      if (used != value.size()) throw std::invalid_argument("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      o.trace = value == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

// ------------------------------------------------------------ host clocks

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------- output fingerprints
//
// A fingerprint lists every simulated output and work count of a pass as
// integers (doubles by their bits), so "identical on every pass" and "bit
// for bit equal" are one vector comparison.

using Fingerprint = std::vector<std::uint64_t>;

void put(Fingerprint& f, double x) { f.push_back(std::bit_cast<std::uint64_t>(x)); }
void put(Fingerprint& f, std::uint64_t x) { f.push_back(x); }

void put(Fingerprint& f, const util::Accumulator& a) {
  put(f, static_cast<std::uint64_t>(a.count()));
  put(f, a.sum());
  put(f, a.mean());
  put(f, a.variance());
  put(f, a.min());
  put(f, a.max());
}

void put(Fingerprint& f, const noc::NocStats& s) {
  put(f, s.packets_injected);
  put(f, s.flits_injected);
  put(f, s.copies_delivered);
  put(f, s.link_hops);
  put(f, s.offchip_link_hops);
  put(f, s.router_traversals);
  put(f, s.global_energy_pj);
  put(f, s.latency_cycles);
  put(f, s.max_latency_cycles);
  put(f, s.duration_cycles);
  put(f, static_cast<std::uint64_t>(s.drained));
  put(f, static_cast<std::uint64_t>(s.link_flits.size()));
  for (const auto& [link, flits] : s.link_flits) {
    put(f, link);
    put(f, flits);
  }
  const noc::FaultStats& x = s.fault;
  for (const std::uint64_t v :
       {x.link_faults, x.router_faults, x.tile_faults, x.links_restored,
        x.reroutes, x.flits_dropped, x.copies_dropped, x.copies_killed,
        x.copies_unroutable, x.copies_blocked_at_source, x.packets_blocked,
        x.copies_stranded}) {
    put(f, v);
  }
}

Fingerprint fingerprint(const core::MappingReport& r) {
  Fingerprint f;
  put(f, static_cast<std::uint64_t>(r.partition.neuron_count()));
  put(f, static_cast<std::uint64_t>(r.partition.crossbar_count()));
  for (const core::CrossbarId c : r.partition.assignment()) put(f, std::uint64_t{c});
  for (const noc::TileId t : r.placement) put(f, std::uint64_t{t});
  put(f, r.global_spikes);
  put(f, r.aer_packets);
  put(f, r.local_events);
  put(f, r.packets_offered);
  put(f, r.global_energy_pj);
  put(f, r.local_energy_pj);
  put(f, r.analytic_global_energy_pj);
  put(f, r.noc_stats);
  const noc::SnnMetrics& m = r.snn_metrics;
  put(f, m.isi_distortion_avg_cycles);
  put(f, m.isi_distortion_max_cycles);
  put(f, m.disorder_fraction);
  put(f, m.disordered_spikes);
  put(f, m.delivered_spikes);
  put(f, m.isi_pairs);
  return f;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

// -------------------------------------------------------------- workloads

struct Inputs {
  apps::AppNetwork app;
  std::uint64_t synapses = 0;
  std::uint64_t spikes = 0;
  std::uint32_t neurons = 0;
  core::MappingFlowConfig flow;
  // cosim only: the mapping computed once, and the closed-loop settings.
  core::Partition partition;
  core::Placement placement;
  std::optional<noc::Topology> topology;
  cosim::CoSimConfig cosim;
  obs::TraceTrackInfo tracks;
};

// The seed draws each network (weights, connectivity, digit image); the
// simulator's stimulus stream keeps one fixed seed.  Every synthetic input
// neuron fans out to a whole layer, so the Poisson draws of ten input
// trains set the spike volume of all four layers: with a seeded stimulus
// the 4x500 spike count, and with it every pass time, spreads by +-15%
// across seeds, against +-1% with seeded weights alone.
constexpr std::uint64_t kStimulusSeed = 42;

apps::AppNetwork make_app(const Options& o) {
  apps::AppNetwork app;
  if (o.workload == Workload::kFlowPsoHd) {
    apps::DigitRecognitionConfig c;
    c.seed = o.seed;
    if (o.reduced) {
      c.excitatory = 40;
      c.inhibitory = 40;
      c.duration_ms = 100.0;
    }
    app = {[c] { return apps::build_digit_recognition_network(c); },
           apps::digit_recognition_sim_config(c)};
  } else {
    apps::SyntheticConfig c;
    c.layers = o.reduced ? 2 : 4;
    c.neurons_per_layer = o.reduced ? 100 : 500;
    c.duration_ms = o.reduced ? 100.0 : 500.0;
    c.seed = o.seed;
    app = {[c] { return apps::build_synthetic_network(c); },
           apps::synthetic_sim_config(c)};
  }
  app.sim.seed = kStimulusSeed;
  return app;
}

/// Simulates the network and extracts its spike graph (Fig. 4 steps 1-2).
snn::SnnGraph simulate_and_extract(const apps::AppNetwork& app,
                                   SpanRecorder* rec,
                                   std::uint64_t* synapses = nullptr) {
  std::optional<snn::Network> net;
  {
    Scope s(rec, "snn.build", "snn");
    net.emplace(app.build());
  }
  snn::SimulationResult result;
  {
    Scope s(rec, "snn.run", "snn");
    snn::Simulator sim(*net, app.sim);
    result = sim.run();
    s.count("snn.neuron_steps",
            snn::simulation_step_count(app.sim) * net->neuron_count());
    s.count("snn.spikes", result.total_spikes);
  }
  Scope s(rec, "graph.extract", "snn.graph");
  snn::SnnGraph graph = snn::SnnGraph::from_simulation(*net, result);
  s.count("graph.synapses_in", net->synapses().size());
  s.count("graph.edges_out", graph.edge_count());
  if (synapses != nullptr) *synapses = net->synapses().size();
  return graph;
}

Inputs setup(const Options& o, SpanRecorder* rec) {
  Scope root(rec, "setup", "bench");
  Inputs in;
  in.app = make_app(o);
  const snn::SnnGraph graph = simulate_and_extract(in.app, rec, &in.synapses);
  in.neurons = graph.neuron_count();
  in.spikes = graph.total_spikes();

  core::MappingFlowConfig& flow = in.flow;
  flow.arch = bench::scaled_cxquad(graph, 8);
  flow.arch.cycles_per_ms = 25;
  flow.injection_jitter_cycles = 20;
  flow.noc.buffer_depth = 4;
  flow.seed = o.seed;
  flow.partitioner = o.workload == Workload::kFlowPsoHd
                         ? core::PartitionerKind::kPso
                         : core::PartitionerKind::kPacman;
  flow.pso.swarm_size = o.reduced ? 8 : 60;
  flow.pso.iterations = o.reduced ? 4 : 60;
  // The default (0) starts one worker per hardware thread; the benchmark
  // measures single-thread work so that cpu_s and pass_s stay comparable.
  flow.pso.threads = 1;
  if (o.workload != Workload::kCosim) return in;

  {
    Scope s(rec, "pacman.partition", "core.pacman");
    in.partition = core::pacman_partition(graph, flow.arch);
  }
  {
    Scope s(rec, "partition.validate", "core.partition");
    in.partition.validate(flow.arch);
  }
  {
    Scope s(rec, "noc.topology", "noc");
    in.topology.emplace(noc::Topology::for_architecture(flow.arch));
  }
  {
    Scope s(rec, "placement", "core.placement");
    in.placement = core::identity_placement(flow.arch.crossbar_count, *in.topology);
  }
  const noc::Topology& topo = *in.topology;
  for (noc::RouterId r = 0; r < topo.router_count(); ++r) {
    in.tracks.router_chip.push_back(topo.chip_of_router(r));
  }
  for (noc::TileId t = 0; t < topo.tile_count(); ++t) {
    in.tracks.tile_router.push_back(topo.router_of_tile(t));
  }
  cosim::CoSimConfig& cc = in.cosim;
  cc.snn = in.app.sim;
  cc.noc.buffer_depth = 4;
  cc.cycles_per_timestep = o.reduced ? 256 : 512;
  cc.dvfs.kind = cosim::DvfsPolicyKind::kUtilizationThreshold;
  cc.noc.trace.enabled = true;
  cc.noc.monitor.enabled = true;
  return in;
}

// ------------------------------------------------------------------ passes

struct PassOutcome {
  Fingerprint fingerprint;
  std::vector<std::string> errors;  ///< failed output checks
  // Simulated metrics of the pass, reported from the reference pass.
  double aer_packets = 0.0;
  double global_energy_uj = 0.0;
  double max_latency_cycles = 0.0;
  double mean_latency_cycles = 0.0;
  double isi_distortion_cycles = 0.0;
  double disorder_pct = 0.0;
  double deadline_miss_pct = 0.0;
  std::uint64_t offered_copies = 0;  ///< flow: destination copies offered
};

std::uint64_t dest_copies(const std::vector<noc::SpikePacketEvent>& traffic) {
  std::uint64_t n = 0;
  for (const auto& ev : traffic) n += ev.dest_tiles.size();
  return n;
}

/// run_mapping_flow, one public stage at a time with a span around each
/// call, in the same order and with the same arguments.
core::MappingReport staged_mapping_flow(const snn::SnnGraph& graph,
                                        const core::MappingFlowConfig& config,
                                        SpanRecorder* rec,
                                        std::uint64_t* offered_copies) {
  core::MappingReport report;
  if (config.partitioner == core::PartitionerKind::kPso) {
    Scope s(rec, "pso.optimize", "core.pso");
    core::PsoConfig pso = config.pso;
    pso.seed = config.seed;
    const core::PsoResult r =
        core::PsoPartitioner(graph, config.arch, pso).optimize();
    report.partition = r.best;
    s.count("pso.fitness_evals", r.fitness_evaluations);
    s.count("pso.iterations_run", r.iterations_run);
    s.count("pso.best_cost", r.best_cost);
  } else {
    Scope s(rec, "pacman.partition", "core.pacman");
    report.partition = core::run_partitioner(graph, config);
  }
  {
    Scope s(rec, "partition.validate", "core.partition");
    report.partition.validate(config.arch);
  }
  std::optional<noc::Topology> topology;
  {
    Scope s(rec, "noc.topology", "noc");
    topology.emplace(noc::Topology::for_architecture(config.arch));
    if (config.arch.interconnect == hw::InterconnectKind::kMesh) {
      topology->set_mesh_routing(config.mesh_routing);
    }
  }
  std::optional<core::CostModel> cost;
  {
    // Building the cost model counts toward cost.report_s.
    Scope s(rec, "cost.report", "core.cost");
    cost.emplace(graph);
  }
  {
    // The benchmark's flows never set comm_aware_placement.
    Scope s(rec, "placement", "core.placement");
    report.placement =
        core::identity_placement(config.arch.crossbar_count, *topology);
  }
  {
    Scope s(rec, "cost.report", "core.cost");
    report.global_spikes = cost->global_spike_count(report.partition);
    report.aer_packets = cost->multicast_packet_count(report.partition);
    report.local_events = cost->local_event_count(report.partition);
    report.local_energy_pj =
        cost->local_energy_pj(report.partition, config.energy());
    report.analytic_global_energy_pj = cost->analytic_global_energy_pj(
        report.partition, *topology, report.placement, config.energy(),
        config.noc.multicast);
  }
  std::vector<noc::SpikePacketEvent> traffic;
  {
    Scope s(rec, "traffic.build", "core.framework");
    traffic = core::build_traffic(graph, report.partition, report.placement,
                                  config.arch.cycles_per_ms,
                                  config.injection_jitter_cycles);
    report.packets_offered = traffic.size();
    *offered_copies = dest_copies(traffic);
    s.count("traffic.packets", traffic.size());
    s.count("traffic.dest_copies", *offered_copies);
  }
  Scope s(rec, "noc.run", "noc");
  noc::NocSimulator sim(std::move(*topology), config.noc);
  noc::NocRunResult run = sim.run(std::move(traffic));
  report.noc_stats = run.stats;
  report.snn_metrics = run.snn;
  report.global_energy_pj = run.stats.global_energy_pj;
  s.count("noc.flits_injected", run.stats.flits_injected);
  s.count("noc.link_hops", run.stats.link_hops);
  s.count("noc.router_traversals", run.stats.router_traversals);
  s.count("noc.busy_cycles", run.window_energy.busy_cycles);
  s.count("noc.duration_cycles", run.stats.duration_cycles);
  return report;
}

/// One Fig. 4 pass.  Untraced passes call run_mapping_flow; traced passes
/// run staged_mapping_flow.  `reference` is null for the reference pass,
/// which also recounts the offered copies from build_traffic.
PassOutcome flow_pass(const Inputs& in, SpanRecorder* rec,
                      const PassOutcome* reference) {
  Scope root(rec, "pass", "bench");
  PassOutcome out;
  const snn::SnnGraph graph = simulate_and_extract(in.app, rec);
  core::MappingReport report;
  std::uint64_t offered = 0;
  if (rec != nullptr) {
    report = staged_mapping_flow(graph, in.flow, rec, &offered);
  } else {
    report = core::run_mapping_flow(graph, in.flow);
    if (reference == nullptr) {
      offered = dest_copies(core::build_traffic(
          graph, report.partition, report.placement,
          in.flow.arch.cycles_per_ms, in.flow.injection_jitter_cycles));
    } else {
      offered = reference->offered_copies;
    }
  }
  try {
    report.partition.validate(in.flow.arch);
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("partition does not validate: ") + e.what());
  }
  const noc::NocStats& st = report.noc_stats;
  if (st.copies_delivered + st.fault.copies_lost() != offered) {
    out.errors.push_back("NoC: delivered + lost != offered copies");
  }
  out.offered_copies = offered;
  out.fingerprint = fingerprint(report);
  put(out.fingerprint, graph.total_spikes());
  put(out.fingerprint, static_cast<std::uint64_t>(graph.edge_count()));
  out.aer_packets = static_cast<double>(report.aer_packets);
  out.global_energy_uj = report.global_energy_pj * 1e-6;
  out.max_latency_cycles = static_cast<double>(st.max_latency_cycles);
  out.mean_latency_cycles = st.latency_cycles.mean();
  out.isi_distortion_cycles = report.snn_metrics.isi_distortion_avg_cycles;
  out.disorder_pct = report.snn_metrics.disorder_percent();
  return out;
}

/// One closed-loop pass: build the network, construct and run the
/// CoSimulator over the set-up mapping, export the observability capture
/// to memory.  `obs_on = false` switches tracing and the monitor off.
PassOutcome cosim_pass(const Inputs& in, SpanRecorder* rec, bool obs_on) {
  Scope root(rec, "pass", "bench");
  PassOutcome out;
  std::optional<snn::Network> net;
  {
    Scope s(rec, "snn.build", "snn");
    net.emplace(in.app.build());
  }
  cosim::CoSimConfig config = in.cosim;
  config.noc.trace.enabled = obs_on;
  config.noc.monitor.enabled = obs_on;
  std::optional<cosim::CoSimulator> sim;
  {
    Scope s(rec, "cosim.build", "cosim");
    sim.emplace(*net, in.partition, in.placement, *in.topology, config);
  }
  cosim::CoSimResult r;
  {
    Scope s(rec, "cosim.run", "cosim");
    r = sim->run();
    s.count("cosim.steps", r.fidelity.steps);
    s.count("cosim.copies_offered", r.fidelity.copies_offered);
    s.count("cosim.deadline_misses", r.fidelity.deadline_misses);
    s.count("cosim.receive_drops", r.fidelity.receive_drops);
    s.count("cosim.link_hops", r.noc.link_hops);
    s.count("obs.trace_recorded", r.trace_recorded);
  }
  std::uint64_t export_hash = kFnvBasis;
  {
    Scope s(rec, "obs.export", "obs");
    std::ostringstream chrome;
    obs::write_chrome_trace(chrome, r.trace, in.tracks);
    std::ostringstream csv;
    obs::write_trace_csv(csv, r.trace);
    std::ostringstream stats;
    obs::write_json(stats, r.noc);
    obs::write_json(stats, r.fidelity);
    obs::write_json(stats, r.resilience);
    obs::write_json(stats, r.fidelity.congestion);
    obs::write_json(stats, r.metrics);
    for (const std::ostringstream* os : {&chrome, &csv, &stats}) {
      const std::string bytes = os->str();
      export_hash = fnv1a(export_hash, bytes.data(), bytes.size());
    }
  }

  // The fabric accounts every offered copy as delivered or lost (copies
  // still in flight at the end count as stranded, i.e. lost), and the
  // receivers account every arrival as accepted or dropped.
  const cosim::FidelityReport& f = r.fidelity;
  if (r.noc.copies_delivered + r.noc.fault.copies_lost() != f.copies_offered ||
      f.copies_arrived != f.copies_accepted + f.receive_drops) {
    out.errors.push_back(
        "cosim: delivered + lost != offered copies (" +
        std::to_string(r.noc.copies_delivered) + " + " +
        std::to_string(r.noc.fault.copies_lost()) + " vs " +
        std::to_string(f.copies_offered) + "; arrived " +
        std::to_string(f.copies_arrived) + " = accepted " +
        std::to_string(f.copies_accepted) + " + dropped " +
        std::to_string(f.receive_drops) + ")");
  }
  Fingerprint& fp = out.fingerprint;
  for (const std::uint64_t v :
       {f.steps, f.total_spikes, f.packets_offered, f.copies_offered,
        f.copies_arrived, f.copies_accepted, f.receive_drops, f.undelivered,
        f.deadline_misses, r.trace_digest, r.trace_recorded,
        static_cast<std::uint64_t>(r.trace.size()), r.snn.total_spikes,
        f.congestion.windows_observed, std::uint64_t{f.congestion.hot_links},
        export_hash}) {
    put(fp, v);
  }
  put(fp, f.transit_cycles);
  put(fp, f.fabric_energy_pj);
  put(fp, f.congestion.max_ewma_occupancy);
  put(fp, r.noc);
  std::uint64_t spike_hash = kFnvBasis;
  for (const snn::SpikeTrain& train : r.snn.spikes) {
    spike_hash = fnv1a(spike_hash, train.data(), train.size() * sizeof(train[0]));
    spike_hash = fnv1a(spike_hash, "|", 1);
  }
  put(fp, spike_hash);

  out.aer_packets = static_cast<double>(f.copies_offered);
  out.global_energy_uj = f.fabric_energy_pj * 1e-6;
  out.max_latency_cycles = f.transit_cycles.max();
  out.mean_latency_cycles = f.transit_cycles.mean();
  out.deadline_miss_pct =
      f.copies_accepted == 0
          ? 0.0
          : 100.0 * static_cast<double>(f.deadline_misses) /
                static_cast<double>(f.copies_accepted);
  return out;
}

// ------------------------------------------------------------ measurement

/// Pass variants a run interleaves.
enum class PassKind : std::uint8_t { kUntraced, kTraced, kObsOff };

struct Timed {
  std::vector<double> wall;
  std::vector<double> cpu;
};

struct Run {
  const Options& options;
  std::optional<Inputs> inputs;
  std::vector<double> setup_wall;
  SpanRecorder recorder;
  PassOutcome reference;
  std::optional<PassOutcome> obs_off_reference;
  std::map<PassKind, Timed> timed;
  double peak_rss_after_first_pass_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  explicit Run(const Options& o) : options(o) {}

  PassOutcome pass(PassKind kind, const PassOutcome* ref) {
    SpanRecorder* rec = kind == PassKind::kTraced ? &recorder : nullptr;
    if (options.workload == Workload::kCosim) {
      return cosim_pass(*inputs, rec, kind != PassKind::kObsOff);
    }
    return flow_pass(*inputs, rec, ref);
  }

  void fail(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
  }

  void timed_pass(PassKind kind) {
    ++attempted;
    const PassOutcome& ref =
        kind == PassKind::kObsOff ? *obs_off_reference : reference;
    const double w0 = wall_s();
    const double c0 = cpu_s();
    try {
      const PassOutcome out = pass(kind, &ref);
      const double w1 = wall_s();
      const double c1 = cpu_s();
      timed[kind].wall.push_back(w1 - w0);
      timed[kind].cpu.push_back(c1 - c0);
      bool ok = out.errors.empty();
      for (const std::string& e : out.errors) fail(e);
      if (out.fingerprint != ref.fingerprint) {
        ok = false;
        fail(kind == PassKind::kTraced
                 ? "staged report differs from run_mapping_flow's"
                 : "pass outputs differ from the reference pass");
      }
      if (!ok) ++failed;
    } catch (const std::exception& e) {
      ++failed;
      fail(std::string("pass threw: ") + e.what());
    }
  }

  void execute() {
    const int setup_reps = options.reduced ? 2 : 5;
    for (int i = 0; i < setup_reps; ++i) {
      inputs.reset();
      const double t0 = wall_s();
      inputs.emplace(setup(options, options.trace ? &recorder : nullptr));
      setup_wall.push_back(wall_s() - t0);
    }
    reference = pass(PassKind::kUntraced, nullptr);
    for (const std::string& e : reference.errors) fail("reference: " + e);
    // Read before the timed loop: the allocator's high-water mark keeps
    // creeping over repeated passes, so a later reading would depend on how
    // many passes the host managed in --seconds.
    peak_rss_after_first_pass_mb = peak_rss_mb();

    std::vector<PassKind> cycle = {PassKind::kUntraced};
    if (options.trace) {
      cycle.push_back(PassKind::kTraced);
      if (options.workload == Workload::kCosim) {
        obs_off_reference = pass(PassKind::kObsOff, nullptr);
        cycle.push_back(PassKind::kObsOff);
      }
    }
    const std::size_t min_rounds = options.trace ? 2 : 3;
    const double deadline = wall_s() + options.seconds;
    for (std::size_t round = 0; round < min_rounds || wall_s() < deadline;
         ++round) {
      for (const PassKind kind : cycle) timed_pass(kind);
    }
  }
};

// ----------------------------------------------------------------- report
//
// The binary reports values by metric name; run.py attaches the units and
// selects the names BENCHMARK.json lists for the mode.

using Values = std::map<std::string, double>;

/// Per-layer numbers from the traced spans: the median over traced roots
/// (set-ups and passes) of each stage's summed self time, and each work
/// count, which must read the same in every root that reports it.  Stages
/// off this workload's path report nothing.
Values layer_metrics(Run& run) {
  const auto& spans = run.recorder.spans();
  const std::vector<double> self = perfbench::self_times(spans);
  std::vector<std::uint32_t> root_of(spans.size());
  std::map<std::uint32_t, Values> per_root;
  std::map<std::string, std::uint64_t> counts;
  std::vector<double> uncovered_pct;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    if (s.parent == perfbench::kNoParent) {
      root_of[i] = static_cast<std::uint32_t>(i);
      if (s.name == "pass" && s.duration_s() > 0.0) {
        uncovered_pct.push_back(100.0 * self[i] / s.duration_s());
      }
      continue;
    }
    root_of[i] = root_of[s.parent];
    per_root[root_of[i]][s.name] += self[i];
    for (const auto& [name, value] : s.counts) {
      const auto [it, fresh] = counts.emplace(name, value);
      if (!fresh && it->second != value) {
        ++run.failed;
        run.fail("work count " + name + " differs between traced passes");
      }
    }
  }
  std::map<std::string, std::vector<double>> samples;
  for (const auto& [root, stages] : per_root) {
    for (const auto& [name, t] : stages) samples[name].push_back(t);
  }
  Values m;
  for (const auto& [name, v] : samples) {
    const bool dotted = name.find('.') != std::string::npos;
    m[name + (dotted ? "_s" : ".s")] = median(v);
  }
  for (const auto& [name, value] : counts) m[name] = static_cast<double>(value);

  const auto ratio = [&m](const char* name, const char* num, const char* den,
                          double scale) {
    if (m.count(num) && m.count(den) && m[den] > 0.0) {
      m[name] = scale * m[num] / m[den];
    }
  };
  ratio("snn.ns_per_neuron_step", "snn.run_s", "snn.neuron_steps", 1e9);
  ratio("graph.ns_per_synapse", "graph.extract_s", "graph.synapses_in", 1e9);
  ratio("pso.us_per_eval", "pso.optimize_s", "pso.fitness_evals", 1e6);
  ratio("noc.ns_per_hop", "noc.run_s", "noc.link_hops", 1e9);
  ratio("noc.busy_frac", "noc.busy_cycles", "noc.duration_cycles", 1.0);
  ratio("cosim.ns_per_copy", "cosim.run_s", "cosim.copies_offered", 1e9);
  m["bench.uncovered_pct"] = median(uncovered_pct);

  const auto overhead = [&run](PassKind slow, PassKind base) {
    return 100.0 * (median(run.timed[slow].wall) /
                        median(run.timed[base].wall) -
                    1.0);
  };
  m["bench.trace_overhead_pct"] = overhead(PassKind::kTraced, PassKind::kUntraced);
  const PassOutcome& r = run.reference;
  if (run.options.workload == Workload::kCosim) {
    m["obs.overhead_pct"] = overhead(PassKind::kUntraced, PassKind::kObsOff);
    m["cosim.deadline_miss_pct"] = r.deadline_miss_pct;
    m["cosim.max_transit_cycles"] = r.max_latency_cycles;
  } else {
    m["noc.max_latency_cycles"] = r.max_latency_cycles;
    m["noc.isi_distortion_cycles"] = r.isi_distortion_cycles;
    m["noc.disorder_pct"] = r.disorder_pct;
  }
  return m;
}

Values end_to_end_metrics(Run& run) {
  const Timed& t = run.timed[PassKind::kUntraced];
  const PassOutcome& r = run.reference;
  return {
      {"pass_s", median(t.wall)},
      {"cpu_s", median(t.cpu)},
      {"setup_s", median(run.setup_wall)},
      {"peak_rss_mb", run.peak_rss_after_first_pass_mb},
      {"aer_packets", r.aer_packets},
      {"global_energy_uj", r.global_energy_uj},
      {"mean_latency_cycles", r.mean_latency_cycles},
  };
}

void print_result(const Run& run, const Values& values) {
  const bool correct = run.failed == 0 && run.errors.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"values\": {";
  std::cout.precision(17);
  const char* sep = "";
  for (const auto& [name, v] : values) {
    std::cout << sep << '"' << name << "\": " << v;
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_UNFIT_BUILD
  std::cerr << "snnmap_perfbench: refusing to measure a build without "
               "optimisation or with asserts enabled\n";
  return 3;
#else
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "snnmap_perfbench: " << e.what() << '\n';
    return 2;
  }
  try {
    Run run(options);
    run.execute();
    const Inputs& in = *run.inputs;
    std::cout << "# workload " << options.workload_name << " seed "
              << options.seed << (options.reduced ? " (reduced)" : "")
              << ": neurons " << in.neurons << ", synapses " << in.synapses
              << ", spikes " << in.spikes << ", crossbars "
              << in.flow.arch.crossbar_count << '\n'
              << "# host: hardware threads "
              << std::thread::hardware_concurrency() << ", build "
              << PERFBENCH_BUILD_TYPE << " (" << PERFBENCH_CXX_FLAGS
              << "), PSO threads " << in.flow.pso.threads << '\n'
              << "# passes: " << run.timed[PassKind::kUntraced].wall.size()
              << " untraced";
    if (options.trace) {
      std::cout << ", " << run.timed[PassKind::kTraced].wall.size()
                << " traced";
      if (options.workload == Workload::kCosim) {
        std::cout << ", " << run.timed[PassKind::kObsOff].wall.size()
                  << " with obs off";
      }
    }
    std::cout << "; failed " << run.failed << " of " << run.attempted << '\n';
    std::vector<double> wall = run.timed[PassKind::kUntraced].wall;
    std::sort(wall.begin(), wall.end());
    const std::size_t n = wall.size();
    std::cout << "# untraced pass wall s over " << n << " passes: min "
              << wall.front() << ", q1 " << wall[n / 4] << ", median "
              << median(wall) << ", q3 " << wall[(3 * n) / 4] << ", max "
              << wall.back() << '\n';

    if (!options.trace) {
      for (const std::string& e : run.errors) std::cout << "# error: " << e << '\n';
      print_result(run, end_to_end_metrics(run));
      return 0;
    }
    const Values layers = layer_metrics(run);
    for (const std::string& e : perfbench::check_spans(run.recorder.spans())) {
      run.fail("trace: " + e);
    }
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      perfbench::write_chrome_trace(out, run.recorder.spans());
      if (!out) run.fail("cannot write " + options.trace_out);
      std::cout << "# spans written to " << options.trace_out << '\n';
    }
    for (const std::string& e : run.errors) std::cout << "# error: " << e << '\n';
    print_result(run, layers);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "snnmap_perfbench: " << e.what() << '\n';
    return 1;
  }
#endif
}
