(** The unified [rpb report] dashboard.

    Merges every machine-readable artifact the harness emits — [BENCH_*.json]
    benchmark documents (schema v1..v3), [PROFILE_*.json] work/span reports,
    [CHECK_*.json] differential-oracle reports, [FAULT_*.json] fault sweeps
    and [rpb compare] documents — into one self-contained HTML page (inline
    CSS and SVG, light/dark from one set of custom properties) or a markdown
    digest suitable for a CI job summary.

    The HTML carries Fig. 4-style speedup curves (measured, plus the
    burdened-DAG prediction from profiles), the Fig. 5-style fear-spectrum
    overhead table (checked/unsafe and sync/unsafe ratios), per-benchmark
    work/span/parallelism from {!Sp_dag}, correctness and fault verdict
    tiles, and the baseline-comparison trajectory. *)

type source = { path : string; kind : string }
(** One input file and the document kind it classified as:
    ["bench" | "profile" | "check" | "fault" | "compare" | "serve" |
    "metrics" | "slo"], or ["jsonl"] for a stream of several documents
    ({!Rpb_benchmarks.Bench_json.docs_of_string}). *)

type artifacts = {
  bench : Rpb_benchmarks.Bench_json.record list;
  profiles : Profile.report list;
  checks : Rpb_benchmarks.Bench_json.json list;
  faults : Rpb_benchmarks.Bench_json.json list;
  compares : Rpb_benchmarks.Bench_json.json list;
  serves : Rpb_benchmarks.Bench_json.json list;
      (** [kind="serve"] documents from [rpb serve] (role [server]) and
          [rpb loadgen] (role [loadgen]) — latency percentiles and
          robustness counters *)
  metrics : Rpb_benchmarks.Bench_json.json list;
      (** [kind="metrics"] live-metrics snapshots (the [stats] verb /
          [--metrics-json] JSONL format), in stream order — the
          dashboard's time-series section *)
  slos : Rpb_benchmarks.Bench_json.json list;
      (** [kind="slo"] burn-rate replays ([rpb slo --json]) — the
          "SLO & error budget" section's verdict tiles, per-objective
          table and fast-burn chart *)
  sources : source list;
  errors : (string * string) list;
      (** files skipped as unreadable/unparseable: [(path, message)] *)
}

val empty : artifacts

val classify_doc : Rpb_benchmarks.Bench_json.json -> string
(** The document's ["kind"] member; ["bench"] when absent (plain benchmark
    documents predate the kind tag). *)

val add_file : artifacts -> string -> artifacts
(** Parse and classify one file.  A file that fails whole-document parsing
    is retried as JSONL — one document per line, each classified on its
    own, which is how [--metrics-json] streams (snapshots interleaved with
    slow-request profiles) load.  I/O and parse failures land in
    {!artifacts.errors} instead of raising, so one bad artifact never
    sinks the report. *)

val load_files : string list -> artifacts
(** {!add_file} over the list, preserving order. *)

(** {1 Derived views} (exposed for tests) *)

type curve = {
  curve_bench : string;
  curve_input : string;
  curve_mode : string;
  curve_scale : int;
  base_ns : float;
  base_label : string;  (** ["seq"] or ["1t"] — what the speedup is against *)
  points : (int * float * float) list;
      (** (threads, time ns, speedup), ascending threads *)
}

val speedup_curves : Rpb_benchmarks.Bench_json.record list -> curve list
(** Every non-smoke (bench, input, mode, scale) group measured at two or
    more thread counts, against the matching sequential record when one
    exists.  Duplicate thread counts: last record wins. *)

type overhead = {
  o_bench : string;
  o_input : string;
  o_threads : int;
  o_scale : int;
  o_vs : string;  (** ["checked"] or ["sync"] *)
  o_unsafe_ns : float;
  o_other_ns : float;
  o_ratio : float;  (** other / unsafe; 1.0 = the safety was free *)
}

val overheads : Rpb_benchmarks.Bench_json.record list -> overhead list
(** Fear-spectrum ratios for every configuration measured both under
    ["unsafe"] and under ["checked"]/["sync"]. *)

type race = {
  pr_bench : string;
  pr_tier : string;
      (** the benchmark's fear tier — ["F"]/["C"]/["S"] (fearless /
          comfortable / scared, worst access pattern wins), ["?"] for a
          bench absent from the registry *)
  pr_input : string;
  pr_mode : string;
  pr_threads : int;
  pr_scale : int;
  pr_times : (string * float) list;
      (** per-policy robust estimates (ns), sorted by policy name *)
  pr_winner : string;  (** policy with the smallest estimate *)
}

val policy_races : Rpb_benchmarks.Bench_json.record list -> race list
(** Every non-smoke configuration measured under two or more scheduling
    policies — the winner table behind the dashboard's "Policy race"
    section.  Duplicate (configuration, policy) pairs: last record wins. *)

(** {1 Rendering} *)

val to_html : artifacts -> string
(** The full self-contained dashboard. *)

val to_markdown : artifacts -> string
(** The digest: summary line plus speedup / overhead / work-span / verdict
    tables. *)

val write_html : path:string -> artifacts -> unit
