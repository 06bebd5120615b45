// The repository benchmark: four WatDiv workloads driven over loopback
// against the real SPARQL endpoint (server::SparqlEndpoint), every
// answer checked. See README.md in this directory for the workloads,
// the metrics and the layer -> metric -> workload map.
//
//   perfbench --workload <basic-mix|il-capped|il-full|ingest-mixed>
//             --seed N --seconds S --trace 0|1 --open-loop-rate R
//             [--data-seed N] [--work-dir DIR]
//             [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (timed from this file, around calls into each module's public
// functions) and writes the spans as Chrome trace JSON to --trace-out.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 on any wrong answer or failed check.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "core/compiler.h"
#include "core/ingest.h"
#include "core/layouts.h"
#include "core/s2rdf.h"
#include "engine/operators.h"
#include "engine/plan.h"
#include "http_client.h"
#include "load.h"
#include "server/http.h"
#include "server/sparql_endpoint.h"
#include "sparql/parser.h"
#include "sparql/results_io.h"
#include "stats.h"
#include "tracing.h"
#include "watdiv/generator.h"
#include "watdiv/queries.h"

namespace perfbench {
namespace {

namespace core = s2rdf::core;
namespace engine = s2rdf::engine;
namespace fs = std::filesystem;

// --- Workload constants ----------------------------------------------------
// Every store is SF 1 (about 75K triples) built with the library defaults
// examples/sparql_server ships with.
constexpr double kScaleFactor = 1.0;
// %vN% instantiations per template: the mix cycles through all of them.
constexpr int kBasicInstances = 16;
constexpr int kIlInstances = 16;
// Row cap of il-capped (?limit=).
constexpr uint64_t kIlRowCap = 100;
// Ingest batches: ~500 held-back triples each (~0.7% of the base).
constexpr size_t kBatchTriples = 500;
// ingest-mixed POSTs this many batches at a fixed interval across its
// measured phases.
constexpr size_t kDuringBatches = 10;
// The read-only workloads POST this many batches after their read phases
// (ingest_p50_ms).
constexpr size_t kPostBatches = 12;
// A traced run then applies this many through S2Rdf::Ingest directly
// (core.ingest_ms). Held back in every run, so that the base store does
// not depend on --trace.
constexpr size_t kDirectBatches = 4;
// Set-ups per untraced run (in memory, on disk); setup_s is their median.
constexpr int kMemorySetupReps = 9;
constexpr int kDiskSetupReps = 5;
// Samples a closed-loop-only phase collects so p99 has 10 beyond it.
constexpr size_t kMinClosedSamples = 1000;
// basic-mix and ingest-mixed spend this share of the run in the open
// loop, the rest in the closed loop.
constexpr double kOpenLoopShare = 2.0 / 3.0;
// An open-loop phase whose p99 send delay exceeds this fell behind its
// schedule and is marked invalid.
constexpr double kMaxSendLateP99Ms = 2.0;
// Traced runs: repetitions of each probed request, and how many rounds
// of the template cycle are probed (time permitting, past the first).
constexpr int kProbeReps = 4;
constexpr int kProbeRounds = 2;

enum class Kind { kBasicMix, kIlCapped, kIlFull, kIngestMixed };

struct Args {
  std::string workload;
  uint64_t seed = 0;
  std::optional<uint64_t> data_seed;
  double seconds = 0.0;
  int trace = -1;
  double open_loop_rate = 0.0;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--data-seed") {
      args->data_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--open-loop-rate") {
      args->open_loop_rate = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 ||
      (args->trace != 0 && args->trace != 1) || args->open_loop_rate <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --open-loop-rate R\n");
    return false;
  }
  return true;
}

std::optional<Kind> ParseKind(const std::string& name) {
  if (name == "basic-mix") return Kind::kBasicMix;
  if (name == "il-capped") return Kind::kIlCapped;
  if (name == "il-full") return Kind::kIlFull;
  if (name == "ingest-mixed") return Kind::kIngestMixed;
  return std::nullopt;
}

// --- Output ----------------------------------------------------------------

std::string Number(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back("\"" + name + "\": {\"value\": " + Number(value) +
                       ", \"unit\": \"" + unit + "\"}");
  }
  // A percentile the sample does not support: null plus the count.
  void AddUnsupported(const std::string& name, const std::string& unit,
                      size_t samples) {
    entries_.push_back("\"" + name + "\": {\"value\": null, \"unit\": \"" +
                       unit + "\", \"samples\": " + std::to_string(samples) +
                       "}");
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += entries_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

// --- Environment -------------------------------------------------------------

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// Reads "<name> <value>" (no labels) from Prometheus text; 0 if absent.
double PromValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t pos = ("\n" + text).find(key);
  if (pos == std::string::npos) return 0.0;
  return std::atof(text.c_str() + pos + key.size() - 1);
}

// The benchmark's own registry: the shared TaskPool reports its queue
// waits here whenever no endpoint registry is attached (set-up), and it
// is re-attached before an endpoint dies so the pool never holds a
// pointer into a destroyed registry.
s2rdf::MetricsRegistry* BenchRegistry() {
  static s2rdf::MetricsRegistry* registry = new s2rdf::MetricsRegistry();
  return registry;
}

// --- Data --------------------------------------------------------------------

using Terms = std::vector<s2rdf::storage::IngestTriple>;

// A graph of `base` plus the first `extra_count` triples of `extra`.
s2rdf::rdf::Graph BuildGraph(const Terms& base, const Terms& extra = {},
                             size_t extra_count = 0) {
  s2rdf::rdf::Graph graph;
  for (const auto& t : base) {
    graph.AddCanonical(t.subject, t.predicate, t.object);
  }
  for (size_t i = 0; i < extra_count && i < extra.size(); ++i) {
    graph.AddCanonical(extra[i].subject, extra[i].predicate, extra[i].object);
  }
  return graph;
}

struct Dataset {
  Terms base;
  Terms held;  // Ingest batches, in order.
};

// The WatDiv graph for `seed`, with `held_count` triples sampled
// uniformly at random held back for ingest.
Dataset MakeDataset(uint64_t seed, size_t held_count) {
  s2rdf::watdiv::GeneratorOptions options;
  options.scale_factor = kScaleFactor;
  options.seed = seed;
  const s2rdf::rdf::Graph graph = s2rdf::watdiv::Generate(options);
  const auto& triples = graph.triples();
  const auto& dict = graph.dictionary();
  std::vector<size_t> order(triples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  s2rdf::SplitMix64 rng(seed ^ 0x5eedba7c4ull);
  held_count = std::min(held_count, order.size());
  for (size_t i = 0; i < held_count; ++i) {
    std::swap(order[i], order[i + rng.Uniform(order.size() - i)]);
  }
  std::vector<bool> is_held(triples.size(), false);
  for (size_t i = 0; i < held_count; ++i) is_held[order[i]] = true;
  Dataset data;
  auto decode = [&](size_t i) {
    return s2rdf::storage::IngestTriple{dict.Decode(triples[i].subject),
                                        dict.Decode(triples[i].predicate),
                                        dict.Decode(triples[i].object)};
  };
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!is_held[i]) data.base.push_back(decode(i));
  }
  for (size_t i = 0; i < held_count; ++i) data.held.push_back(decode(order[i]));
  return data;
}

std::string BatchNTriples(const Terms& held, size_t batch) {
  std::string out;
  const size_t end = std::min(held.size(), (batch + 1) * kBatchTriples);
  for (size_t i = batch * kBatchTriples; i < end; ++i) {
    out += held[i].subject + " " + held[i].predicate + " " + held[i].object +
           " .\n";
  }
  return out;
}

// --- Workload mixes ----------------------------------------------------------

std::vector<RequestSpec> MakeSpecs(Kind kind, uint64_t query_seed,
                                   size_t* round_size) {
  namespace watdiv = s2rdf::watdiv;
  s2rdf::SplitMix64 rng(query_seed);
  std::vector<const watdiv::QueryTemplate*> templates;
  int rounds = kIlInstances;
  uint64_t limit = 0;
  if (kind == Kind::kBasicMix || kind == Kind::kIngestMixed) {
    for (const auto& t : watdiv::BasicTestingQueries()) templates.push_back(&t);
    rounds = kBasicInstances;
  } else {
    for (const auto& t : watdiv::IncrementalLinearQueries()) {
      // il-full leaves out IL-3-5/6/8/9: 170-410 MB of JSON each.
      const bool huge = t.category == "IL-3" && t.name != "IL-3-7" &&
                        t.name != "IL-3-10";
      if (kind == Kind::kIlFull && huge) continue;
      templates.push_back(&t);
    }
    if (kind == Kind::kIlCapped) limit = kIlRowCap;
  }
  *round_size = templates.size();
  std::vector<RequestSpec> specs;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < templates.size(); ++i) {
      RequestSpec spec;
      spec.label = templates[i]->name;
      spec.query = watdiv::InstantiateQuery(*templates[i], kScaleFactor, &rng);
      spec.limit = limit;
      // il-full alternates JSON and CSV; each template gets both.
      spec.csv = kind == Kind::kIlFull &&
                 (i + static_cast<size_t>(round)) % 2 == 1;
      spec.wire = SparqlGetRequest(spec.query, spec.csv, spec.limit);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// --- Served store --------------------------------------------------------------

struct ServedStore {
  std::unique_ptr<core::S2Rdf> db;
  std::unique_ptr<s2rdf::server::SparqlEndpoint> endpoint;
  int port = 0;
  std::string dir;

  ServedStore() = default;
  ServedStore(const ServedStore&) = delete;
  ServedStore& operator=(const ServedStore&) = delete;
  ~ServedStore() { Close(); }

  void Close() {
    if (endpoint != nullptr) {
      s2rdf::TaskPool::Shared()->AttachMetrics(BenchRegistry());
      endpoint->Stop();
      endpoint.reset();
    }
    db.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      dir.clear();
    }
  }
};

struct SetupTiming {
  double setup_s = 0.0;
  double open_s = 0.0;
};

// Generated graph -> served store: Create (+ Open for a disk store) +
// endpoint start until /health answers.
s2rdf::Status SetUp(const Terms& base, const std::string& dir,
                    s2rdf::Env* env, SpanLog* spans, ServedStore* store,
                    SetupTiming* timing) {
  s2rdf::rdf::Graph graph = BuildGraph(base);
  const Clock::time_point start = Clock::now();
  core::S2RdfOptions options;
  options.storage_dir = dir;
  options.env = env;
  S2RDF_ASSIGN_OR_RETURN(store->db,
                         core::S2Rdf::Create(std::move(graph), options));
  store->dir = dir;
  const Clock::time_point created = Clock::now();
  if (spans != nullptr) spans->Add("core.S2Rdf::Create", start, created);
  if (!dir.empty()) {
    // Reopened the way `sparql_server --open` does: cold table cache, no
    // memory budget.
    store->db.reset();
    S2RDF_ASSIGN_OR_RETURN(
        store->db, core::S2Rdf::Open(dir, options.num_partitions, env));
    timing->open_s = MsSince(created) / 1000.0;
    if (spans != nullptr) spans->Add("core.S2Rdf::Open", created, Clock::now());
  }
  const Clock::time_point serve = Clock::now();
  store->endpoint = std::make_unique<s2rdf::server::SparqlEndpoint>(
      store->db.get(), s2rdf::server::EndpointOptions());
  S2RDF_ASSIGN_OR_RETURN(store->port, store->endpoint->Start(0));
  HttpClient client(store->port);
  HttpExchange health;
  const std::string request = GetRequest("/health");
  if (!client.Exchange(request, &health) || health.status != 200 ||
      health.body.compare(0, 2, "ok") != 0) {
    return s2rdf::InternalError("endpoint did not answer /health");
  }
  const Clock::time_point served = Clock::now();
  if (spans != nullptr) spans->Add("server.start_until_health", serve, served);
  timing->setup_s = MsBetween(start, served) / 1000.0;
  return s2rdf::Status::Ok();
}

// --- Per-layer probe (traced runs) --------------------------------------------

// Median per-call timings of one request, each layer called directly.
struct LayerSample {
  double client_ms = 0.0;
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double exec_ms = 0.0;
  double serialize_ms = 0.0;
  double handle_ms = 0.0;
  double resolve_ms = 0.0;
  double tables_resolved = 0.0;
  double result_bytes = 0.0;
  engine::ExecMetrics metrics;
};

s2rdf::StatusOr<LayerSample> ProbeLayers(ServedStore* store,
                                         const RequestSpec& spec,
                                         HttpClient* client, SpanLog* spans) {
  core::S2Rdf& db = *store->db;
  // ExecutePlan takes a mutable dictionary (aggregates mint literals);
  // S2Rdf::Execute passes the same object.
  auto* dict =
      const_cast<s2rdf::rdf::Dictionary*>(&db.graph().dictionary());
  auto parsed_request = s2rdf::server::ParseHttpRequest(spec.wire);
  if (!parsed_request.ok()) return parsed_request.status();

  std::vector<double> client_ms, parse_ms, compile_ms, exec_ms, serialize_ms,
      handle_ms, resolve_ms;
  LayerSample out;
  // The same work as Handle, one public call per layer.
  auto call_layers = [&](uint64_t root, std::string* body) -> s2rdf::Status {
    const Clock::time_point t0 = Clock::now();
    S2RDF_ASSIGN_OR_RETURN(s2rdf::sparql::Query query,
                           s2rdf::sparql::ParseQuery(spec.query));
    const Clock::time_point t1 = Clock::now();
    core::CompilerOptions compiler_options;
    compiler_options.optimizer = core::QueryOptions().optimizer;
    core::QueryCompiler compiler(&db.catalog(), dict, compiler_options);
    S2RDF_ASSIGN_OR_RETURN(engine::PlanPtr plan, compiler.Compile(query));
    const Clock::time_point t2 = Clock::now();
    engine::ExecContext ctx;
    ctx.num_partitions = core::S2RdfOptions().num_partitions;
    ctx.parallel_execution = core::S2RdfOptions().parallel_execution;
    double resolve = 0.0;
    uint64_t resolved = 0;
    engine::TableProvider tables = db.catalog().AsProvider();
    engine::TableProvider timed = [&](const std::string& name) {
      const Clock::time_point r0 = Clock::now();
      const engine::Table* table = tables(name);
      resolve += MsSince(r0);
      ++resolved;
      return table;
    };
    S2RDF_ASSIGN_OR_RETURN(engine::Table table,
                           engine::ExecutePlan(*plan, timed, dict, &ctx));
    const Clock::time_point t3 = Clock::now();
    ctx.metrics.output_tuples = table.NumRows();
    if (spec.limit > 0 && table.NumRows() > spec.limit) {
      table = engine::Slice(table, 0, spec.limit);
    }
    *body = spec.csv ? s2rdf::sparql::ResultsToCsv(table, *dict)
                     : s2rdf::sparql::ResultsToJson(table, *dict);
    const Clock::time_point t4 = Clock::now();
    spans->Add("sparql.ParseQuery", t0, t1, root, root);
    spans->Add("core.QueryCompiler::Compile", t1, t2, root, root);
    spans->Add("engine.ExecutePlan", t2, t3, root, root);
    spans->Add(spec.csv ? "sparql.ResultsToCsv" : "sparql.ResultsToJson", t3,
               t4, root, root);
    parse_ms.push_back(MsBetween(t0, t1));
    compile_ms.push_back(MsBetween(t1, t2));
    exec_ms.push_back(MsBetween(t2, t3));
    serialize_ms.push_back(MsBetween(t3, t4));
    resolve_ms.push_back(resolve);
    out.tables_resolved = static_cast<double>(resolved);
    out.result_bytes = static_cast<double>(body->size());
    out.metrics = ctx.metrics;
    return s2rdf::Status::Ok();
  };
  auto call_handle = [&](uint64_t root) {
    const Clock::time_point t0 = Clock::now();
    s2rdf::server::HttpResponse response =
        store->endpoint->Handle(*parsed_request);
    const Clock::time_point t1 = Clock::now();
    spans->Add("server.SparqlEndpoint::Handle", t0, t1, root, root);
    handle_ms.push_back(MsBetween(t0, t1));
    return response;
  };

  // One untimed call warms the caches; after that the direct calls and
  // Handle alternate in order so that neither always runs second.
  (void)store->endpoint->Handle(*parsed_request);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const uint64_t root = SpanLog::NextId();
    const Clock::time_point start = Clock::now();
    HttpExchange response;
    if (!client->Exchange(spec.wire, &response) || response.status != 200) {
      return s2rdf::InternalError(spec.label + ": probe request failed");
    }
    spans->Add("client.http", start, response.last_byte, root, root);
    client_ms.push_back(MsBetween(start, response.last_byte));
    std::string body;
    s2rdf::server::HttpResponse handled;
    if (rep % 2 == 0) {
      S2RDF_RETURN_IF_ERROR(call_layers(root, &body));
      handled = call_handle(root);
    } else {
      handled = call_handle(root);
      S2RDF_RETURN_IF_ERROR(call_layers(root, &body));
    }
    spans->AddWithId(root, "probe " + spec.label, start, Clock::now(), 0,
                     root);
    if (handled.status_code != 200 || body != response.body ||
        handled.body != body) {
      return s2rdf::InternalError(spec.label +
                                  ": layer calls disagree with the endpoint");
    }
  }
  out.client_ms = Median(client_ms);
  out.parse_ms = Median(parse_ms);
  out.compile_ms = Median(compile_ms);
  out.exec_ms = Median(exec_ms);
  out.serialize_ms = Median(serialize_ms);
  out.handle_ms = Median(handle_ms);
  out.resolve_ms = Median(resolve_ms);
  return out;
}

// --- Run -------------------------------------------------------------------------

struct LoadSummary {
  std::vector<double> latencies;  // Successful requests only.
  std::optional<double> p99_ms;
  size_t attempted = 0;
  size_t failed = 0;
  double capacity_qps = 0.0;
  double send_late_p99_ms = 0.0;
  bool open_loop_valid = true;
  PhaseResult open;    // Empty for closed-loop-only workloads.
  PhaseResult closed;
};

// Runs the workload's measured phases for `seconds` in total.
// `min_samples`: a closed-loop-only workload extends its phase until
// the latency sample can support p99.
LoadSummary RunLoad(Kind kind, const ServedStore& store,
                    const std::vector<RequestSpec>& specs, double seconds,
                    double rate, int threads, bool trace, size_t min_samples,
                    AnswerChecker* checker, IngestFeed* feed) {
  LoadSummary summary;
  const bool has_open = kind == Kind::kBasicMix || kind == Kind::kIngestMixed;
  if (has_open) {
    PhaseConfig open;
    open.open_loop = true;
    open.rate = rate;
    open.seconds = seconds * kOpenLoopShare;
    open.threads = threads;
    open.trace = trace;
    summary.open = RunPhase(store.port, specs, open, checker, feed);
  }
  PhaseConfig closed;
  closed.seconds = has_open ? seconds * (1.0 - kOpenLoopShare) : seconds;
  closed.threads = threads;
  closed.min_samples = has_open ? 0 : min_samples;
  closed.trace = trace;
  summary.closed = RunPhase(store.port, specs, closed, checker, feed);

  const PhaseResult& latency_phase = has_open ? summary.open : summary.closed;
  for (const PhaseResult* phase : {&summary.open, &summary.closed}) {
    summary.attempted += phase->samples.size();
    for (const Sample& s : phase->samples) {
      if (!s.ok) ++summary.failed;
    }
  }
  for (const Sample& s : latency_phase.samples) {
    if (s.ok) summary.latencies.push_back(s.latency_ms);
  }
  summary.p99_ms = SupportedQuantile(summary.latencies, 0.99);
  size_t closed_ok = 0;
  for (const Sample& s : summary.closed.samples) closed_ok += s.ok ? 1 : 0;
  summary.capacity_qps =
      static_cast<double>(closed_ok) / summary.closed.elapsed_s;
  if (has_open) {
    std::vector<double> late;
    for (const Sample& s : summary.open.samples) late.push_back(s.late_ms);
    const std::optional<double> p99 = SupportedQuantile(late, 0.99);
    summary.send_late_p99_ms =
        p99.has_value() || late.empty()
            ? p99.value_or(0.0)
            : *std::max_element(late.begin(), late.end());
    summary.open_loop_valid = summary.send_late_p99_ms <= kMaxSendLateP99Ms;
    std::fprintf(stderr,
                 "perfbench: open loop: %zu requests at %.0f/s, send-late "
                 "p99 %.3f ms\n",
                 summary.open.samples.size(), rate, summary.send_late_p99_ms);
    if (!summary.open_loop_valid) {
      std::fprintf(stderr,
                   "perfbench: open-loop phase INVALID: the generator fell "
                   "behind (send-late p99 %.3f ms > %.1f ms)\n",
                   summary.send_late_p99_ms, kMaxSendLateP99Ms);
    }
  }
  return summary;
}

int Run(const Args& args) {
  const std::optional<Kind> maybe_kind = ParseKind(args.workload);
  if (!maybe_kind.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Kind kind = *maybe_kind;
  const bool traced = args.trace == 1;
  const bool disk = kind == Kind::kIngestMixed;
  // --seed draws the query instantiations; the dataset is the
  // generator's default WatDiv graph unless --data-seed picks another, so
  // that runs on different seeds measure the same store.
  const uint64_t data_seed =
      args.data_seed.value_or(s2rdf::watdiv::GeneratorOptions().seed);
  const uint64_t query_seed = args.seed;
  const Clock::time_point origin = Clock::now();
  s2rdf::TaskPool::Shared()->AttachMetrics(BenchRegistry());

  // Validity record.
  const int nproc = Nproc();
  const unsigned hardware = std::thread::hardware_concurrency();
  const size_t pool_width = s2rdf::TaskPool::Shared()->ParallelismWidth();
  const bool pool_too_wide = pool_width > static_cast<size_t>(nproc);
  std::fprintf(stderr,
               "perfbench: {\"workload\": \"%s\", \"data_seed\": %llu, "
               "\"query_seed\": %llu, \"nproc\": %d, "
               "\"hardware_concurrency\": %u, \"task_pool_parallelism\": %zu, "
               "\"pool_wider_than_hardware\": %s}\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(data_seed),
               static_cast<unsigned long long>(query_seed), nproc, hardware,
               pool_width, pool_too_wide ? "true" : "false");
  if (pool_too_wide) {
    std::fprintf(stderr, "perfbench: WARNING: task pool wider than the %d "
                         "usable cores; parallel timings are not valid\n",
                 nproc);
  }

  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }

  const size_t during = kind == Kind::kIngestMixed ? kDuringBatches : 0;
  const size_t post = kind == Kind::kIngestMixed ? 0 : kPostBatches;
  const size_t direct = traced ? kDirectBatches : 0;
  const Dataset data = MakeDataset(
      data_seed, (during + post + kDirectBatches) * kBatchTriples);
  size_t round_size = 0;
  std::vector<RequestSpec> specs = MakeSpecs(kind, query_seed, &round_size);

  SpanLog main_spans(0);
  CountingEnv counting_env;
  s2rdf::Env* env = traced ? &counting_env : nullptr;

  // Set-up, repeated; the last one is served.
  std::vector<double> setup_s;
  std::vector<double> open_s;
  std::unique_ptr<ServedStore> store;
  const int reps = traced ? 1 : disk ? kDiskSetupReps : kMemorySetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    store = std::make_unique<ServedStore>();
    const std::string dir =
        disk ? args.work_dir + "/store-" + std::to_string(rep) : "";
    SetupTiming timing;
    s2rdf::Status status = SetUp(data.base, dir, env,
                                 traced ? &main_spans : nullptr, store.get(),
                                 &timing);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
    setup_s.push_back(timing.setup_s);
    open_s.push_back(timing.open_s);
  }
  const std::string setup_prom = BenchRegistry()->RenderPrometheus();

  // The store after every batch, for ingest-mixed's bounds and checks.
  std::unique_ptr<core::S2Rdf> final_db;
  if (kind == Kind::kIngestMixed) {
    auto built = core::S2Rdf::Create(
        BuildGraph(data.base, data.held,
                   (during + post + direct) * kBatchTriples),
        {});
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: reference store failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    final_db = std::move(built).value();
  }
  const Clock::time_point expected_start = Clock::now();
  if (s2rdf::Status s = ComputeExpected(store->db.get(), final_db.get(), &specs);
      !s.ok()) {
    std::fprintf(stderr, "perfbench: reference answers: %s\n",
                 s.ToString().c_str());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
    return 1;
  }
  std::fprintf(stderr, "perfbench: %zu requests in the mix, references in "
                       "%.2f s\n",
               specs.size(), MsSince(expected_start) / 1000.0);

  std::vector<std::string> during_requests;
  for (size_t b = 0; b < during; ++b) {
    during_requests.push_back(PostRequest("/ingest", "application/n-triples",
                                          BatchNTriples(data.held, b)));
  }
  IngestFeed feed(std::move(during_requests),
                  during > 0 ? args.seconds * 1000.0 / during : 0.0);
  IngestFeed* feed_ptr = during > 0 ? &feed : nullptr;

  AnswerChecker checker(specs);
  // Failures found outside the load phases (final checks, layer probes).
  uint64_t other_failed = 0;
  auto fail = [&](const std::string& what) {
    checker.Fail(what);
    ++other_failed;
  };
  const int threads = nproc;
  HttpClient scraper(store->port);
  auto scrape = [&]() {
    HttpExchange metrics;
    if (!scraper.Exchange(GetRequest("/metrics"), &metrics) ||
        metrics.status != 200) {
      return std::string();
    }
    return metrics.body;
  };

  // Measured load. A traced run measures the same phases twice, half as
  // long: untraced, then with client spans (trace.overhead_frac).
  LoadSummary load;
  LoadSummary traced_load;
  std::string prom_before;
  std::string prom_after;
  feed.Start(Clock::now());
  if (!traced) {
    load = RunLoad(kind, *store, specs, args.seconds, args.open_loop_rate,
                   threads, false, kMinClosedSamples, &checker, feed_ptr);
  } else {
    load = RunLoad(kind, *store, specs, args.seconds / 2.0,
                   args.open_loop_rate, threads, false, kMinClosedSamples,
                   &checker, feed_ptr);
    prom_before = scrape();
    traced_load = RunLoad(kind, *store, specs, args.seconds / 2.0,
                          args.open_loop_rate, threads, true, 0, &checker,
                          feed_ptr);
    prom_after = scrape();
  }

  // The rest of ingest-mixed's schedule, or a read-only workload's
  // batches, POSTed by one client.
  std::vector<double> ingest_rtt_ms = feed.rtts_ms();
  uint64_t ingest_failed = feed.failed();
  {
    HttpClient client(store->port);
    for (size_t b = feed.claimed(); b < during + post; ++b) {
      HttpExchange response;
      const Clock::time_point t0 = Clock::now();
      const bool ok =
          client.Exchange(PostRequest("/ingest", "application/n-triples",
                                      BatchNTriples(data.held, b)),
                          &response) &&
          response.status == 200;
      ingest_rtt_ms.push_back(MsSince(t0));
      if (!ok) {
        ++ingest_failed;
        std::fprintf(stderr, "perfbench: ingest batch %zu failed (HTTP %d)\n",
                     b, response.status);
      }
    }
  }
  // Traced: further batches through S2Rdf::Ingest directly.
  std::vector<double> direct_ingest_ms;
  uint64_t direct_ntriples_bytes = 0;
  const IoCounters io_before_direct = counting_env.Snapshot();
  for (size_t b = during + post; b < during + post + direct; ++b) {
    const std::string body = BatchNTriples(data.held, b);
    auto batch = core::MakeBatchFromNTriples(body);
    if (!batch.ok()) {
      fail("batch " + std::to_string(b) + ": " + batch.status().ToString());
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    auto result = store->db->Ingest(*batch);
    const Clock::time_point t1 = Clock::now();
    main_spans.Add("core.S2Rdf::Ingest", t0, t1);
    direct_ingest_ms.push_back(MsBetween(t0, t1));
    direct_ntriples_bytes += body.size();
    if (!result.ok()) {
      ++ingest_failed;
      std::fprintf(stderr, "perfbench: ingest failed: %s\n",
                   result.status().ToString().c_str());
    }
  }
  const IoCounters io_after_direct = counting_env.Snapshot();
  const size_t ingest_attempted =
      ingest_rtt_ms.size() + direct_ingest_ms.size();

  // ingest-mixed: the ingested store must equal one built from the full
  // graph (statistics, and Basic row counts on the served layout).
  if (kind == Kind::kIngestMixed) {
    if (!StatsIdentical(store->db.get(), final_db.get())) {
      fail("ingested store statistics differ from a full build");
    }
    std::map<std::string, uint64_t> checked;
    for (const RequestSpec& spec : specs) {
      if (!checked.emplace(spec.query, spec.rows_max).second) continue;
      auto result = store->db->Execute(spec.query);
      if (!result.ok() || result->table.NumRows() != spec.rows_max) {
        fail(spec.label + ": ingested store row count differs from a full "
                          "build");
      }
    }
  }

  // Store size at the end of the run.
  const auto* tt_stats = store->db->catalog().GetStats("triples");
  const double triples = tt_stats != nullptr
                             ? static_cast<double>(tt_stats->rows)
                             : static_cast<double>(data.base.size());
  const double store_bytes =
      disk ? static_cast<double>(DirBytes(store->dir))
           : static_cast<double>(store->db->catalog().TotalBytes() +
                                 store->db->graph().dictionary()
                                     .Serialize()
                                     .size());

  // Traced: direct layer calls on the first rounds of the mix.
  std::vector<LayerSample> layers;
  if (traced) {
    HttpClient client(store->port);
    const size_t probe_count =
        std::min(specs.size(), round_size * kProbeRounds);
    const Clock::time_point probe_start = Clock::now();
    for (size_t i = 0; i < probe_count; ++i) {
      // Past the first round, stop once half the run length is spent.
      if (i >= round_size && MsSince(probe_start) > args.seconds * 500.0) {
        break;
      }
      auto sample = ProbeLayers(store.get(), specs[i], &client, &main_spans);
      if (!sample.ok()) {
        fail(sample.status().ToString());
        continue;
      }
      layers.push_back(*sample);
    }
  }
  const IoCounters io_end = counting_env.Snapshot();
  const double cached_mb =
      static_cast<double>(store->db->catalog().CachedBytes()) / (1 << 20);

  // Traced: the layout builders on a catalog the benchmark owns.
  double vp_build_s = 0.0;
  double extvp_build_s = 0.0;
  if (traced) {
    store->Close();  // Frees the served store before building another.
    const std::string owned_dir = disk ? args.work_dir + "/owned" : "";
    s2rdf::rdf::Graph graph = BuildGraph(data.base);
    s2rdf::storage::Catalog catalog(owned_dir);
    const Clock::time_point t0 = Clock::now();
    s2rdf::Status vp = core::BuildVpLayout(graph, &catalog);
    const Clock::time_point t1 = Clock::now();
    auto extvp = core::BuildExtVpLayout(graph, core::S2RdfOptions().extvp,
                                        &catalog);
    const Clock::time_point t2 = Clock::now();
    if (!vp.ok() || !extvp.ok()) {
      fail("layout build on the benchmark's catalog failed");
    }
    main_spans.Add("core.BuildVpLayout", t0, t1);
    main_spans.Add("core.BuildExtVpLayout", t1, t2);
    vp_build_s = MsBetween(t0, t1) / 1000.0;
    extvp_build_s = MsBetween(t1, t2) / 1000.0;
  }
  store.reset();
  fs::remove_all(args.work_dir, ec);

  const uint64_t failed =
      load.failed + traced_load.failed + ingest_failed + other_failed;
  const uint64_t attempted =
      load.attempted + traced_load.attempted + ingest_attempted;
  const bool correct = failed == 0;
  std::fprintf(stderr,
               "perfbench: %llu requests, %llu failed, %llu first responses "
               "compared byte for byte; p99 %.3f ms over %zu samples\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(checker.byte_checked()),
               load.p99_ms.value_or(-1.0), load.latencies.size());

  MetricSet metrics;
  if (!traced) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("p50_ms", Median(load.latencies), "ms");
    metrics.Add("capacity_qps", load.capacity_qps, "queries/s");
    metrics.Add("ingest_p50_ms", Median(ingest_rtt_ms), "ms");
    metrics.Add("store_bytes_per_triple", store_bytes / triples, "B/triple");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    // Client-side split of the traced phases.
    std::vector<double> connect, ttfb, transfer;
    uint64_t requests = 0;
    for (const PhaseResult* phase : {&traced_load.open, &traced_load.closed}) {
      for (const Sample& s : phase->samples) {
        ++requests;
        if (s.connect_ms > 0.0) connect.push_back(s.connect_ms);
        ttfb.push_back(s.ttfb_ms);
        transfer.push_back(s.transfer_ms);
      }
    }
    const uint64_t connects =
        traced_load.open.connects + traced_load.closed.connects;
    metrics.Add("server.connect_ms", Mean(connect), "ms");
    metrics.Add("server.connections_per_request",
                requests > 0 ? static_cast<double>(connects) / requests : 0.0,
                "conn/req");
    metrics.Add("server.ttfb_ms", Mean(ttfb), "ms");
    metrics.Add("server.transfer_ms", Mean(transfer), "ms");

    // Layer probe aggregates: per-request means over the probed mix.
    LayerSample sum;
    double sum_bytes = 0.0;
    double max_peak = 0.0;
    double sum_input = 0, sum_inter = 0, sum_cmp = 0, sum_out = 0;
    for (const LayerSample& l : layers) {
      sum.client_ms += l.client_ms;
      sum.parse_ms += l.parse_ms;
      sum.compile_ms += l.compile_ms;
      sum.exec_ms += l.exec_ms;
      sum.serialize_ms += l.serialize_ms;
      sum.handle_ms += l.handle_ms;
      sum.resolve_ms += l.resolve_ms;
      sum.tables_resolved += l.tables_resolved;
      sum_bytes += l.result_bytes;
      sum_input += static_cast<double>(l.metrics.input_tuples);
      sum_inter += static_cast<double>(l.metrics.intermediate_tuples);
      sum_cmp += static_cast<double>(l.metrics.join_comparisons);
      sum_out += static_cast<double>(l.metrics.output_tuples);
      max_peak = std::max(max_peak,
                          static_cast<double>(l.metrics.peak_table_bytes));
    }
    const double n = layers.empty() ? 1.0 : static_cast<double>(layers.size());
    const double layered =
        sum.parse_ms + sum.compile_ms + sum.exec_ms + sum.serialize_ms;
    metrics.Add("server.handle_ms", sum.handle_ms / n, "ms");
    metrics.Add("server.transport_ms", (sum.client_ms - sum.handle_ms) / n,
                "ms");
    const double admission_count =
        PromValue(prom_after, "s2rdf_admission_wait_seconds_count") -
        PromValue(prom_before, "s2rdf_admission_wait_seconds_count");
    const double admission_sum =
        PromValue(prom_after, "s2rdf_admission_wait_seconds_sum") -
        PromValue(prom_before, "s2rdf_admission_wait_seconds_sum");
    metrics.Add("server.admission_wait_ms",
                admission_count > 0 ? admission_sum * 1000.0 / admission_count
                                    : 0.0,
                "ms");
    metrics.Add("server.rejected",
                PromValue(prom_after, "s2rdf_queries_rejected_total") -
                    PromValue(prom_before, "s2rdf_queries_rejected_total"),
                "count");
    metrics.Add("sparql.parse_ms", sum.parse_ms / n, "ms");
    metrics.Add("sparql.serialize_ms", sum.serialize_ms / n, "ms");
    metrics.Add("sparql.result_bytes", sum_bytes / n, "B");
    metrics.Add("sparql.serialize_mb_per_s",
                sum.serialize_ms > 0
                    ? sum_bytes / (1 << 20) / (sum.serialize_ms / 1000.0)
                    : 0.0,
                "MiB/s");
    metrics.Add("core.compile_ms", sum.compile_ms / n, "ms");
    metrics.Add("core.vp_build_s", vp_build_s, "s");
    metrics.Add("core.extvp_build_s", extvp_build_s, "s");
    metrics.Add("core.open_s", Median(open_s), "s");
    metrics.Add("core.ingest_ms", Median(direct_ingest_ms), "ms");
    metrics.Add("engine.exec_ms", sum.exec_ms / n, "ms");
    metrics.Add("engine.input_tuples", sum_input / n, "tuples");
    metrics.Add("engine.intermediate_tuples", sum_inter / n, "tuples");
    metrics.Add("engine.join_comparisons", sum_cmp / n, "count");
    metrics.Add("engine.output_tuples", sum_out / n, "tuples");
    metrics.Add("engine.tuples_per_output_row",
                sum_out > 0 ? (sum_input + sum_inter) / sum_out : 0.0,
                "tuples/row");
    metrics.Add("engine.peak_table_mb", max_peak / (1 << 20), "MiB");
    metrics.Add("storage.write_ms", io_end.write_ms, "ms");
    metrics.Add("storage.sync_ms", io_end.sync_ms, "ms");
    metrics.Add("storage.syncs", static_cast<double>(io_end.syncs), "count");
    metrics.Add("storage.files_written",
                static_cast<double>(io_end.files_written), "count");
    metrics.Add("storage.bytes_written",
                static_cast<double>(io_end.bytes_written), "B");
    metrics.Add("storage.write_amplification",
                direct_ntriples_bytes > 0
                    ? static_cast<double>(io_after_direct.bytes_written -
                                          io_before_direct.bytes_written) /
                          static_cast<double>(direct_ntriples_bytes)
                    : 0.0,
                "B/B");
    metrics.Add("storage.read_ms", io_end.read_ms, "ms");
    metrics.Add("storage.bytes_read", static_cast<double>(io_end.bytes_read),
                "B");
    metrics.Add("storage.table_resolve_ms", sum.resolve_ms / n, "ms");
    metrics.Add("storage.tables_resolved", sum.tables_resolved / n, "count");
    metrics.Add("storage.cached_mb", cached_mb, "MiB");
    const double wait_sum =
        PromValue(setup_prom, "s2rdf_task_pool_queue_wait_seconds_sum") +
        PromValue(prom_after, "s2rdf_task_pool_queue_wait_seconds_sum") -
        PromValue(prom_before, "s2rdf_task_pool_queue_wait_seconds_sum");
    const double wait_count =
        PromValue(setup_prom, "s2rdf_task_pool_queue_wait_seconds_count") +
        PromValue(prom_after, "s2rdf_task_pool_queue_wait_seconds_count") -
        PromValue(prom_before, "s2rdf_task_pool_queue_wait_seconds_count");
    metrics.Add("common.task_pool_queue_wait_ms",
                wait_count > 0 ? wait_sum * 1000.0 / wait_count : 0.0, "ms");
    metrics.Add("common.task_pool_tasks", wait_count, "count");
    const LoadSummary& l = traced_load;
    // The tail of the untraced phases; not gated (see README.md).
    if (load.p99_ms.has_value()) {
      metrics.Add("client.p99_ms", *load.p99_ms, "ms");
    } else {
      metrics.AddUnsupported("client.p99_ms", "ms", load.latencies.size());
    }
    metrics.Add("client.send_late_p99_ms", l.send_late_p99_ms, "ms");
    metrics.Add("client.open_loop_valid",
                l.open_loop_valid && load.open_loop_valid ? 1.0 : 0.0,
                "bool");
    metrics.Add("client.error_rate",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
                "fraction");
    metrics.Add("ledger.unaccounted_frac",
                sum.client_ms > 0 ? (sum.client_ms - layered) / sum.client_ms
                                  : 0.0,
                "fraction");
    metrics.Add("ledger.handle_gap_frac",
                sum.handle_ms > 0 ? (sum.handle_ms - layered) / sum.handle_ms
                                  : 0.0,
                "fraction");
    const double untraced_p50 = Median(load.latencies);
    metrics.Add("trace.overhead_frac",
                untraced_p50 > 0
                    ? Median(traced_load.latencies) / untraced_p50 - 1.0
                    : 0.0,
                "fraction");
    metrics.Add("validity.pool_wider_than_hardware", pool_too_wide ? 1 : 0,
                "bool");

    if (!args.trace_out.empty()) {
      std::vector<Span> spans = std::move(main_spans.spans());
      for (const PhaseResult* phase : {&traced_load.open, &traced_load.closed}) {
        spans.insert(spans.end(), phase->spans.begin(), phase->spans.end());
      }
      const std::string json = RenderChromeTrace(spans, origin);
      s2rdf::Status written =
          s2rdf::Env::Default()->WriteFile(args.trace_out, json);
      std::fprintf(stderr, "perfbench: %zu spans -> %s%s\n", spans.size(),
                   args.trace_out.c_str(), written.ok() ? "" : " (FAILED)");
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::Run(args);
}
