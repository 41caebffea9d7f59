(* rpb — command-line runner for the RPB benchmark suite.

   rpb list
   rpb patterns
   rpb run sa --input wiki --scale 3 --threads 4 --mode checked --repeats 3
   rpb run all --scale 1
   rpb stats --threads 4 --json stats.json --trace trace.json
   rpb check --seed 42 --json CHECK_report.json
   rpb profile --bench sort --threads 8 --json PROFILE_sort.json
   rpb bench all --repeats 7 --json BENCH_run.json --save-baseline
   rpb compare bench/baselines BENCH_run.json --threshold 0.1
   rpb report BENCH_run.json PROFILE_sort.json -o REPORT.html *)

open Cmdliner
open Rpb_benchmarks

(* Exit-code contract, uniform across subcommands (documented in the man
   page and README): 0 success; 2 usage error (bad flags, unknown
   benchmark/policy, unreadable artifacts); 3 perf gate failed (compare
   regression); 4 correctness/robustness violation (failed verification,
   oracle or fault-sweep violation, loadgen lost replies or digest
   mismatches). *)
let exit_ok = 0
let exit_usage = 2
let exit_gate = 3
let exit_violation = 4

let mode_conv =
  Arg.conv
    ( (fun s ->
        match Mode.of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown mode " ^ s))),
      fun fmt m -> Format.pp_print_string fmt (Mode.name m) )

let policy_conv =
  let module Policy = Rpb_pool.Pool.Policy in
  Arg.conv
    ( (fun s ->
        match Policy.find s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown policy %s (have: %s)" s
                  (String.concat ", " (Policy.names ()))))),
      fun fmt (p : Policy.t) -> Format.pp_print_string fmt p.Policy.name )

let policy_arg =
  Arg.(value & opt policy_conv Rpb_pool.Pool.Policy.default
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"named scheduling policy for the work-stealing pool (see `rpb \
                 list` docs; e.g. default, steal_half, work_first, sticky, \
                 lazy, lazy_sticky, lazy_steal_half)")

let minor_heap_kb_arg =
  Arg.(value & opt (some int) None
       & info [ "minor-heap-kb" ] ~docv:"KB"
           ~doc:"size each worker domain's minor heap to $(docv) KiB for the \
                 measured pool (an allocation-overhead lever alongside \
                 --policy; the runtime default applies when omitted)")

let run_one ~name ~input ~scale ~threads ~mode ~repeats ~seq =
  match Registry.find name with
  | None ->
    Printf.eprintf "unknown benchmark %s (try `rpb list`)\n" name;
    exit_usage
  | Some e ->
    let input =
      match input with
      | Some i when List.mem i e.Common.inputs -> i
      | Some i ->
        Printf.eprintf "warning: %s is not a standard input for %s (have: %s)\n"
          i name
          (String.concat ", " e.Common.inputs);
        i
      | None -> List.hd e.Common.inputs
    in
    let pool = Rpb_pool.Pool.create ~num_workers:threads () in
    Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool) @@ fun () ->
    Rpb_pool.Pool.run pool (fun () ->
        let prepared = e.Common.prepare pool ~input ~scale in
        let runner =
          if seq then prepared.Common.run_seq
          else fun () -> prepared.Common.run_par mode
        in
        runner ();
        (* warm-up *)
        let (), t = Rpb_prim.Timing.mean_of ~repeats runner in
        let ok = prepared.Common.verify () in
        Printf.printf
          "%-6s input=%s (%s) %s threads=%d scale=%d: %.4f s  [%s]\n" name input
          prepared.Common.size
          (if seq then "seq" else "mode=" ^ Mode.name mode)
          threads scale t
          (if ok then "verified" else "VERIFICATION FAILED");
        if ok then exit_ok else exit_violation)

let list_cmd =
  let doc = "List the 14 RPB benchmarks with their inputs and patterns." in
  let run () =
    Printf.printf "%-6s %-40s %-14s %-9s %s\n" "name" "description" "inputs"
      "dispatch" "patterns";
    List.iter
      (fun e ->
        Printf.printf "%-6s %-40s %-14s %-9s %s\n" e.Common.name e.Common.full_name
          (String.concat "," e.Common.inputs)
          (if e.Common.dynamic then "dynamic" else "static")
          (String.concat " "
             (List.map Rpb_core.Pattern.access_name e.Common.patterns)))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let patterns_cmd =
  let doc = "Show the pattern taxonomy and fear spectrum (paper Table 3)." in
  let run () =
    List.iter
      (fun p ->
        Printf.printf "%-7s %-55s %s\n"
          (Rpb_core.Pattern.access_name p)
          (Rpb_core.Pattern.expression p)
          (Rpb_core.Pattern.fear_name (Rpb_core.Pattern.safety p)))
      Rpb_core.Pattern.all_accesses
  in
  Cmd.v (Cmd.info "patterns" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run a benchmark (or `all`) and verify its output." in
  let bench_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc:"benchmark name or `all`")
  in
  let input =
    Arg.(value & opt (some string) None & info [ "input"; "i" ] ~docv:"INPUT")
  in
  let scale = Arg.(value & opt int 2 & info [ "scale"; "s" ] ~docv:"N") in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let repeats = Arg.(value & opt int 3 & info [ "repeats"; "r" ] ~docv:"R") in
  let seq = Arg.(value & flag & info [ "seq" ] ~doc:"run the sequential baseline") in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let run name input scale threads mode repeats seq =
    let names = if name = "all" then Registry.names else [ name ] in
    let code =
      List.fold_left
        (fun acc n ->
          max acc (run_one ~name:n ~input ~scale ~threads ~mode ~repeats ~seq))
        0 names
    in
    exit code
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ bench_arg $ input $ scale $ threads $ mode $ repeats $ seq)

(* A deliberately steal-heavy synthetic workload: fine-grained fork-join
   leaves plus an unbalanced recursive join, so every per-worker counter
   (tasks, steals, idle waits, deque depth) moves at num_workers > 1.  Each
   part runs under a named span, the phases of a [--trace] file. *)
let stats_workload pool ~tasks ~work =
  let span name f = Rpb_pool.Pool.Trace.span pool name f in
  let sink = Atomic.make 0 in
  let spin k =
    let acc = ref 0 in
    for i = 1 to k do
      acc := !acc + (i * i)
    done;
    Atomic.fetch_and_add sink !acc |> ignore
  in
  Rpb_pool.Pool.run pool (fun () ->
      span "stats.leaves" (fun () ->
          Rpb_pool.Pool.parallel_for ~grain:1 ~start:0 ~finish:tasks
            ~body:(fun _ -> spin work)
            pool);
      let rec unbalanced n =
        if n <= 1 then 1
        else
          let a, b =
            Rpb_pool.Pool.join pool
              (fun () -> unbalanced (n - 1))
              (fun () ->
                spin (work / 4);
                1)
          in
          a + b
      in
      ignore (span "stats.unbalanced" (fun () -> unbalanced 64));
      span "stats.reduce" (fun () ->
          ignore
            (Rpb_pool.Pool.parallel_for_reduce ~grain:16 ~start:0
               ~finish:(tasks * 8) ~body:Fun.id ~combine:( + ) ~init:0 pool)))

let stats_run ~threads ~tasks ~work ~json ~trace =
  let module Pool = Rpb_pool.Pool in
  let pool = Pool.create ~num_workers:threads () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  if trace <> None then Pool.Trace.start ();
  let before = Pool.Stats.capture pool in
  let (), elapsed =
    Rpb_prim.Timing.time (fun () -> stats_workload pool ~tasks ~work)
  in
  let after = Pool.Stats.capture pool in
  let s = Pool.Stats.diff ~before ~after in
  Printf.printf "synthetic workload: %d leaf tasks, %.4f s\n%s\n" tasks elapsed
    (Pool.Stats.to_string s);
  (match trace with
   | None -> ()
   | Some path ->
     let r = Pool.Recorder.stop () in
     let n = Pool.Trace.to_file path r in
     Printf.printf
       "wrote %d trace events to %s (chrome://tracing format; %d dropped)\n" n
       path r.Pool.Recorder.dropped);
  (match json with
   | None -> ()
   | Some path ->
     let record =
       {
         Bench_json.bench = "stats-workload";
         input = "synthetic";
         mode = "unsafe";
         scale = 0;
         threads;
         repeats = 1;
         mean_ns = elapsed *. 1e9;
         min_ns = elapsed *. 1e9;
         samples_ns = [| elapsed *. 1e9 |];
         smoke = false;
         policy = Pool.policy_name pool;
         verified = true;
         workers = Bench_json.workers_of_pool_stats s;
       }
     in
     Bench_json.write_doc ~path
       ~meta:[ ("generator", Bench_json.Str "rpb-stats") ]
       [ record ];
     Printf.printf "wrote telemetry record to %s\n" path);
  0

let stats_cmd =
  let doc =
    "Run a steal-heavy synthetic workload and report per-worker scheduler \
     telemetry (Pool.Stats), optionally as JSON and/or a Chrome trace."
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let tasks =
    Arg.(value & opt int 512 & info [ "tasks" ] ~docv:"N" ~doc:"leaf task count")
  in
  let work =
    Arg.(value & opt int 20_000 & info [ "work" ] ~docv:"K" ~doc:"spin per leaf")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write a Bench_json document")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "record phase, work and idle spans with the flight recorder \
                and write them as Chrome-trace JSON")
  in
  let run threads tasks work json trace =
    exit (stats_run ~threads ~tasks ~work ~json ~trace)
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ threads $ tasks $ work $ json $ trace)

let check_run ~seed ~bench ~threads ~scale ~policy ~json =
  match Rpb_check.Oracle.run ?bench ~threads ~scale ~policy ~seed () with
  | report ->
    print_string (Rpb_check.Oracle.summary report);
    (match json with
     | None -> ()
     | Some path ->
       Rpb_check.Oracle.write_json ~path report;
       Printf.printf "wrote check report to %s\n" path);
    if Rpb_check.Oracle.ok report then exit_ok else exit_violation
  | exception Invalid_argument msg ->
    Printf.eprintf "%s (try `rpb list`)\n" msg;
    exit_usage

let check_cmd =
  let doc =
    "Differential oracle + shadow-array self-check: run every benchmark \
     under the deterministic sequential executor (in-order and seeded \
     shuffled) and the work-stealing pool, diff output digests element-wise \
     against the sequential baseline, and verify the dynamic race detector \
     reports zero races on valid inputs while catching an injected \
     duplicate offset."
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"seed for schedules and inputs")
  in
  let bench =
    Arg.(value & opt (some string) None
         & info [ "bench"; "b" ] ~docv:"BENCH"
             ~doc:"restrict to one benchmark (default: all)")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write the machine-readable report")
  in
  let run seed bench threads scale policy json =
    exit (check_run ~seed ~bench ~threads ~scale ~policy ~json)
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ seed $ bench $ threads $ scale $ policy_arg $ json)

let faults_run ~seed ~bench ~threads ~scale ~deadline ~policy ~json =
  match
    Rpb_check.Oracle.fault_sweep ?bench ~threads ~scale ~deadline ~policy ~seed
      ()
  with
  | report ->
    print_string (Rpb_check.Oracle.fault_summary report);
    (match json with
     | None -> ()
     | Some path ->
       Rpb_check.Oracle.write_fault_json ~path report;
       Printf.printf "wrote fault report to %s\n" path);
    if Rpb_check.Oracle.fault_ok report then exit_ok else exit_violation
  | exception Invalid_argument msg ->
    Printf.eprintf "%s (try `rpb list`)\n" msg;
    exit_usage

let faults_cmd =
  let doc =
    "Seeded fault-injection sweep: run every benchmark under Pool.Fault \
     schedules (injected task exceptions, steal delays, worker stalls, \
     spawn failures) and assert the failure-semantics contract — each run \
     either completes with the correct canonical digest or raises a clean \
     structured error within the deadline, never hangs, never returns a \
     torn result, and leaves the pool reusable."
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"seed for the fault schedules")
  in
  let bench =
    Arg.(value & opt (some string) None
         & info [ "bench"; "b" ] ~docv:"BENCH"
             ~doc:"restrict to one benchmark (default: all)")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let deadline =
    Arg.(value & opt float 30.
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"per-run watchdog deadline (Pool.Stalled past it)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write the machine-readable report")
  in
  let run seed bench threads scale deadline policy json =
    exit (faults_run ~seed ~bench ~threads ~scale ~deadline ~policy ~json)
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(const run $ seed $ bench $ threads $ scale $ deadline $ policy_arg
          $ json)

let profile_run ~bench ~input ~mode ~threads ~scale ~seed ~policy
    ~minor_heap_kb ~json =
  match
    Rpb_obs.Profile.profile ?input ~mode ~policy ?minor_heap_kb ~bench ~threads
      ~scale ~seed ()
  with
  | r ->
    print_string (Rpb_obs.Profile.summary r);
    (match json with
     | None -> ()
     | Some path ->
       Rpb_obs.Profile.write_json ~path r;
       Printf.printf "\nwrote profile document to %s\n" path);
    if r.Rpb_obs.Profile.verified then exit_ok else exit_violation
  | exception Invalid_argument msg ->
    Printf.eprintf "%s (try `rpb list`)\n" msg;
    exit_usage

let profile_cmd =
  let doc =
    "Work/span profiler: run one benchmark under the scheduler flight \
     recorder and report work (T1), span (Tinf), parallelism, burdened \
     parallelism, leaf-task granularity, per-phase and per-worker \
     breakdowns, and the predicted 1..P speedup curve."
  in
  let bench =
    Arg.(value & opt string "sort"
         & info [ "bench"; "b" ] ~docv:"BENCH" ~doc:"benchmark to profile")
  in
  let input =
    Arg.(value & opt (some string) None & info [ "input"; "i" ] ~docv:"INPUT")
  in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"recorded in the profile metadata")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the schema_version=2 profile document")
  in
  let run bench input mode threads scale seed policy minor_heap_kb json =
    exit
      (profile_run ~bench ~input ~mode ~threads ~scale ~seed ~policy
         ~minor_heap_kb ~json)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ bench $ input $ mode $ threads $ scale $ seed
          $ policy_arg $ minor_heap_kb_arg $ json)

(* ---- bench: measured records for the baseline store / perf trajectory ---- *)

let bench_run ~name ~input ~scale ~threads ~repeats ~mode ~policy
    ~minor_heap_kb ~with_seq ~json ~baseline_dir =
  let names = if name = "all" then Registry.names else [ name ] in
  let missing = List.filter (fun n -> Registry.find n = None) names in
  if missing <> [] then begin
    Printf.eprintf "unknown benchmark %s (try `rpb list`)\n"
      (String.concat ", " missing);
    exit_usage
  end
  else begin
    let records = ref [] in
    let failed = ref false in
    let measure pool e input how =
      let r, size = Registry.measure_entry pool ~entry:e ~input ~scale ~repeats ~how in
      records := r :: !records;
      if not r.Bench_json.verified then failed := true;
      Printf.printf "%-6s input=%s (%s) %-7s threads=%d: %.4f s (median of %d)  [%s]\n"
        r.Bench_json.bench input size r.Bench_json.mode r.Bench_json.threads
        (Rpb_obs.Baseline.estimate_ns r /. 1e9)
        repeats
        (if r.Bench_json.verified then "verified" else "VERIFICATION FAILED");
      flush stdout
    in
    List.iter
      (fun n ->
        let e = Option.get (Registry.find n) in
        let input =
          match input with Some i -> i | None -> List.hd e.Common.inputs
        in
        if with_seq then begin
          (* The 1-worker sequential baseline never schedules, so it stays on
             the default policy and keeps matching pre-policy baselines. *)
          let pool = Rpb_pool.Pool.create ~num_workers:1 () in
          Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool)
            (fun () -> measure pool e input `Seq)
        end;
        let pool =
          Rpb_pool.Pool.create ~policy ?minor_heap_kb ~num_workers:threads ()
        in
        Fun.protect ~finally:(fun () -> Rpb_pool.Pool.shutdown pool)
          (fun () -> measure pool e input (`Par mode)))
      names;
    let records = List.rev !records in
    (match json with
     | None -> ()
     | Some path ->
       Bench_json.write_doc ~path
         ~meta:
           [
             ("generator", Bench_json.Str "rpb-bench-cli");
             ("scale", Bench_json.Int scale);
             ("threads", Bench_json.Int threads);
             ("repeats", Bench_json.Int repeats);
             ("policy", Bench_json.Str policy.Rpb_pool.Pool.Policy.name);
           ]
         records;
       Printf.printf "wrote %d benchmark records to %s\n"
         (List.length records) path);
    (match baseline_dir with
     | None -> ()
     | Some dir ->
       let paths = Rpb_obs.Baseline.save ~dir records in
       Printf.printf "baseline store updated: %s\n" (String.concat ", " paths));
    if !failed then exit_violation else exit_ok
  end

let bench_cmd =
  let doc =
    "Time benchmarks with per-repeat samples (schema v3) for the perf \
     trajectory: write a BENCH document with --json and/or merge the records \
     into the committed baseline store with --save-baseline."
  in
  let bench_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"BENCH" ~doc:"benchmark name or `all`")
  in
  let input =
    Arg.(value & opt (some string) None & info [ "input"; "i" ] ~docv:"INPUT")
  in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"N") in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"P") in
  let repeats =
    Arg.(value & opt int 5
         & info [ "repeats"; "r" ] ~docv:"R"
             ~doc:"per-repeat samples per configuration (>= 3 enables the \
                   permutation test in `rpb compare`)")
  in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let seq =
    Arg.(value & flag
         & info [ "seq" ]
             ~doc:"also time the sequential baseline (1 worker) per benchmark")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"write a Bench_json document")
  in
  let baseline =
    Arg.(value & opt ~vopt:(Some "bench/baselines") (some string) None
         & info [ "save-baseline" ] ~docv:"DIR"
             ~doc:"merge the records into the baseline store (default \
                   $(docv): bench/baselines)")
  in
  let run name input scale threads repeats mode policy minor_heap_kb seq json
      baseline =
    exit
      (bench_run ~name ~input ~scale ~threads ~repeats ~mode ~policy
         ~minor_heap_kb ~with_seq:seq ~json ~baseline_dir:baseline)
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const run $ bench_arg $ input $ scale $ threads $ repeats $ mode
          $ policy_arg $ minor_heap_kb_arg $ seq $ json $ baseline)

(* ---- compare: noise-aware regression gate ---- *)

let compare_run ~old_path ~new_path ~threshold ~alpha ~noise_mult ~seed ~json =
  match
    (Rpb_obs.Baseline.load old_path, Rpb_obs.Baseline.load new_path)
  with
  | exception Sys_error msg ->
    Printf.eprintf "compare: %s\n" msg;
    exit_usage
  | exception Bench_json.Parse_error msg ->
    Printf.eprintf "compare: parse error: %s\n" msg;
    exit_usage
  | baseline, current ->
    let r =
      Rpb_obs.Baseline.compare_records ~threshold ~alpha ~noise_mult ~seed
        ~baseline ~current ()
    in
    print_string (Rpb_obs.Baseline.summary r);
    (match json with
     | None -> ()
     | Some path ->
       Rpb_obs.Baseline.write_json ~path r;
       Printf.printf "wrote comparison document to %s\n" path);
    if Rpb_obs.Baseline.ok r then exit_ok else exit_gate

let compare_cmd =
  let doc =
    "Compare two benchmark runs (files or baseline directories) and classify \
     every shared configuration as improved / unchanged / regressed.  A \
     change is only flagged when it clears a noise-widened tolerance band \
     AND a permutation test over the per-repeat samples finds it \
     significant, so same-binary re-runs compare clean.  Exits 3 on \
     regression (the CI perf-gate signal)."
  in
  let old_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OLD" ~doc:"baseline: a BENCH_*.json file or a \
                                     baseline directory")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"NEW" ~doc:"candidate run: file or directory")
  in
  let threshold =
    Arg.(value & opt float 0.10
         & info [ "threshold" ] ~docv:"FRACTION"
             ~doc:"flat relative tolerance before noise widening (0.10 = \
                   10%)")
  in
  let alpha =
    Arg.(value & opt float 0.05
         & info [ "alpha" ] ~docv:"A" ~doc:"permutation-test significance \
                                            level")
  in
  let noise_mult =
    Arg.(value & opt float 3.0
         & info [ "noise-mult" ] ~docv:"K"
             ~doc:"band widening: K * (MAD-sigma old + new) / old estimate")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"permutation-test resampling seed \
                                           (deterministic)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the kind=compare document (feeds `rpb report`)")
  in
  let run old_path new_path threshold alpha noise_mult seed json =
    exit
      (compare_run ~old_path ~new_path ~threshold ~alpha ~noise_mult ~seed
         ~json)
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ old_arg $ new_arg $ threshold $ alpha $ noise_mult
          $ seed $ json)

(* ---- serve / loadgen: the fault-tolerant request server ---- *)

(* Policy as a validated NAME (the serve path resolves names to pools per
   request, so the CLI carries strings, not Policy.t values). *)
let policy_name_conv =
  let module Policy = Rpb_pool.Pool.Policy in
  Arg.conv
    ( (fun s ->
        if Policy.find s <> None then Ok s
        else
          Error
            (`Msg
               (Printf.sprintf "unknown policy %s (have: %s)" s
                  (String.concat ", " (Policy.names ()))))),
      Format.pp_print_string )

let default_socket () =
  Printf.sprintf "%s/rpb-serve-%d.sock"
    (Filename.get_temp_dir_name ())
    (Unix.getpid ())

(* "bench", "bench:input", "bench:input:scale" ("" input = default). *)
let parse_preload spec =
  match String.split_on_char ':' spec with
  | [ b ] -> Ok (b, None, 0)
  | [ b; i ] -> Ok (b, (if i = "" then None else Some i), 0)
  | [ b; i; s ] -> (
    match int_of_string_opt s with
    | Some scale -> Ok (b, (if i = "" then None else Some i), scale)
    | None -> Error (Printf.sprintf "bad preload scale in %S" spec))
  | _ -> Error (Printf.sprintf "bad preload spec %S (BENCH[:INPUT[:SCALE]])" spec)

let parse_preloads specs =
  List.fold_left
    (fun acc spec ->
      match (acc, parse_preload spec) with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok l, Ok p -> Ok (l @ [ p ]))
    (Ok []) specs

let serve_run ~socket ~threads ~policy ~max_queue ~drain_grace ~scale_cap
    ~preload ~json ~quiet ~minor_heap_kb ~metrics_json ~metrics_interval
    ~slow_log ~slow_pctl ~slo ~slo_fast ~slo_slow =
  let module Serve = Rpb_serve.Serve in
  let module Slo = Rpb_obs.Slo in
  let usage fmt = Printf.ksprintf (fun m -> Printf.eprintf "serve: %s\n" m) fmt in
  if metrics_interval <= 0. then begin
    usage "--metrics-interval must be > 0 (got %g)" metrics_interval;
    exit_usage
  end
  else if slow_pctl <= 0. || slow_pctl > 100. then begin
    usage "--slow-pctl must be in (0, 100] (got %g)" slow_pctl;
    exit_usage
  end
  else if slo_fast <= 0. || slo_slow <= 0. || slo_fast > slo_slow then begin
    usage "--slo-fast-s/--slo-slow-s must be > 0 with fast <= slow (got %g/%g)"
      slo_fast slo_slow;
    exit_usage
  end
  else
  match
    match slo with
    | None -> Stdlib.Ok None
    | Some spec -> Result.map Option.some (Slo.parse_spec spec)
  with
  | Stdlib.Error msg ->
    usage "--slo: %s" msg;
    exit_usage
  | Stdlib.Ok slo -> (
  match parse_preloads preload with
  | Error msg ->
    Printf.eprintf "serve: %s\n" msg;
    exit_usage
  | Ok preload -> (
    let cfg =
      {
        Serve.socket_path = socket;
        threads;
        policy;
        max_queue;
        drain_grace_s = drain_grace;
        scale_cap;
        preload;
        json_path = json;
        quiet;
        minor_heap_kb;
        metrics_path = metrics_json;
        metrics_interval_s = metrics_interval;
        slow_log;
        slow_pctl;
        slo;
        slo_fast_s = slo_fast;
        slo_slow_s = slo_slow;
      }
    in
    match Serve.start cfg with
    | Error msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit_usage
    | Ok t ->
      let stop_flag = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
      (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
      if not quiet then
        Printf.eprintf "serve: SIGINT/SIGTERM drains and exits\n%!";
      while not (Atomic.get stop_flag) do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Serve.stop t;
      exit_ok))

let serve_cmd =
  let doc =
    "Serve benchmark jobs over a Unix-domain socket: one shared \
     work-stealing pool per requested policy, a bounded admission queue \
     with overload shedding, per-request deadlines on the shared timer \
     wheel, cooperative cancellation on client disconnect, and graceful \
     drain on SIGTERM/SIGINT.  Structured error replies (overloaded, \
     stalled, cancelled, malformed, ...) never kill the process or poison \
     a pool."
  in
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")
  in
  let threads =
    Arg.(value & opt int 4
         & info [ "threads"; "t" ] ~docv:"P" ~doc:"workers per pool")
  in
  let policy =
    Arg.(value & opt policy_name_conv "default"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"pool policy for requests that do not name one")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"admission bound on queued + in-flight requests; past it, \
                   requests are shed with an overloaded reply and a \
                   retry-after hint")
  in
  let drain_grace =
    Arg.(value & opt float 2.0
         & info [ "drain-grace" ] ~docv:"SECONDS"
             ~doc:"how long drain lets the in-flight request finish before \
                   cancelling it")
  in
  let scale_cap =
    Arg.(value & opt int 6
         & info [ "scale-cap" ] ~docv:"S" ~doc:"reject requests above this \
                                                scale")
  in
  let preload =
    Arg.(value & opt_all string []
         & info [ "preload" ] ~docv:"BENCH[:INPUT[:SCALE]]"
             ~doc:"prepare an instance at startup (repeatable)")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the kind=serve stats artifact at drain")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ]) in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"append one kind=metrics snapshot per interval as JSONL \
                   (feeds the report dashboard's live-metrics section)")
  in
  let metrics_interval =
    Arg.(value & opt float 1.0
         & info [ "metrics-interval" ] ~docv:"SECONDS"
             ~doc:"snapshot period for $(b,--metrics-json)")
  in
  let slow_log =
    Arg.(value & opt int 8
         & info [ "slow-log" ] ~docv:"N"
             ~doc:"keep the N slowest-request scheduler profiles (0 \
                   disables the slow-request log)")
  in
  let slow_pctl =
    Arg.(value & opt float 99.0
         & info [ "slow-pctl" ] ~docv:"P"
             ~doc:"exec-time percentile a request must clear to be logged \
                   as slow")
  in
  let slo =
    Arg.(value & opt (some string) None
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"service-level objectives, `;`-separated: \
                   $(b,latency:HIST:pQQ<MS) (e.g. \
                   latency:serve.exec_ms:p95<50) and/or $(b,avail:TARGET) \
                   (serve.ok vs failed+stalled).  Enables burn-rate \
                   evaluation on the sampler thread, the health verb, and \
                   budget-aware admission tightening")
  in
  let slo_fast =
    Arg.(value & opt float 60.0
         & info [ "slo-fast-s" ] ~docv:"SECONDS"
             ~doc:"fast burn-rate window (tests scale this down)")
  in
  let slo_slow =
    Arg.(value & opt float 3600.0
         & info [ "slo-slow-s" ] ~docv:"SECONDS"
             ~doc:"slow burn-rate window (tests scale this down)")
  in
  let run socket threads policy max_queue drain_grace scale_cap preload json
      quiet minor_heap_kb metrics_json metrics_interval slow_log slow_pctl slo
      slo_fast slo_slow =
    exit
      (serve_run ~socket ~threads ~policy ~max_queue ~drain_grace ~scale_cap
         ~preload ~json ~quiet ~minor_heap_kb ~metrics_json ~metrics_interval
         ~slow_log ~slow_pctl ~slo ~slo_fast ~slo_slow)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket $ threads $ policy $ max_queue $ drain_grace
          $ scale_cap $ preload $ json $ quiet $ minor_heap_kb_arg
          $ metrics_json $ metrics_interval $ slow_log $ slow_pctl $ slo
          $ slo_fast $ slo_slow)

let loadgen_run ~socket ~boot ~server_threads ~server_policy ~max_queue
    ~server_json ~server_metrics_json ~clients ~requests ~seed ~mean_gap_ms
    ~benches ~mode ~scale ~policies ~deadline_ms ~spin_ms ~burst ~kill_every
    ~max_retries ~backoff_base_ms ~backoff_cap_ms ~wait_cap_s ~json ~quiet =
  let module Serve = Rpb_serve.Serve in
  let module Loadgen = Rpb_serve.Loadgen in
  let server =
    if not boot then Ok None
    else begin
      let preload =
        List.filter_map
          (fun b -> if b = "spin" then None else Some (b, None, scale))
          benches
      in
      let cfg =
        {
          (Serve.default_config ~socket_path:socket) with
          threads = server_threads;
          policy = server_policy;
          max_queue;
          preload;
          json_path = server_json;
          metrics_path = server_metrics_json;
          metrics_interval_s = 0.25;
          quiet;
        }
      in
      match Serve.start cfg with
      | Error msg ->
        Printf.eprintf "loadgen: boot: %s\n" msg;
        Error exit_usage
      | Ok t -> Ok (Some t)
    end
  in
  match server with
  | Error code -> code
  | Ok server -> (
    let finish code =
      (match server with Some t -> Serve.stop t | None -> ());
      code
    in
    let cfg =
      {
        Loadgen.socket_path = socket;
        clients;
        requests_per_client = requests;
        seed;
        mean_gap_ms;
        benches;
        mode;
        scale;
        policies;
        deadline_ms;
        spin_ms;
        burst;
        kill_every;
        max_retries;
        backoff_base_ms;
        backoff_cap_ms;
        wait_cap_s;
        json_path = json;
        quiet = true;
      }
    in
    match Loadgen.run cfg with
    | Error msg ->
      Printf.eprintf "loadgen: %s\n" msg;
      finish exit_usage
    | Ok r ->
      List.iter print_endline (Loadgen.summary_lines r);
      (match json with
       | Some path -> Printf.printf "wrote loadgen artifact to %s\n" path
       | None -> ());
      let violated =
        r.Loadgen.lost > 0
        || r.Loadgen.protocol_errors > 0
        || r.Loadgen.digest_mismatches > 0
        || Loadgen.accounted r <> r.Loadgen.sent
        || r.Loadgen.ok = 0
      in
      if violated then begin
        Printf.eprintf
          "loadgen: robustness violation (lost=%d proto_err=%d \
           digest_mismatch=%d accounted=%d sent=%d ok=%d)\n"
          r.Loadgen.lost r.Loadgen.protocol_errors
          r.Loadgen.digest_mismatches (Loadgen.accounted r) r.Loadgen.sent
          r.Loadgen.ok;
        finish exit_violation
      end
      else finish exit_ok)

let loadgen_cmd =
  let doc =
    "Drive an rpb server with seeded open-loop load: multiple client \
     connections, exponential arrivals, jittered exponential retry/backoff \
     on overload sheds, optional kill/reconnect chaos, and a latency \
     percentile report.  Exits 4 when any reply is lost, duplicated, \
     malformed, or carries a digest that disagrees with another run of the \
     same instance."
  in
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket" ] ~docv:"PATH" ~doc:"server socket path")
  in
  let boot =
    Arg.(value & flag
         & info [ "boot" ]
             ~doc:"start an in-process server on $(b,--socket) first and \
                   drain it afterwards (single-command smoke runs)")
  in
  let server_threads =
    Arg.(value & opt int 4
         & info [ "server-threads" ] ~docv:"P" ~doc:"pool workers for \
                                                     $(b,--boot)")
  in
  let server_policy =
    Arg.(value & opt policy_name_conv "default"
         & info [ "server-policy" ] ~docv:"POLICY" ~doc:"default policy for \
                                                         $(b,--boot)")
  in
  let max_queue =
    Arg.(value & opt int 16
         & info [ "max-queue" ] ~docv:"N" ~doc:"admission bound for \
                                                $(b,--boot)")
  in
  let server_json =
    Arg.(value & opt (some string) None
         & info [ "server-json" ] ~docv:"FILE"
             ~doc:"server-side kind=serve artifact for $(b,--boot)")
  in
  let server_metrics_json =
    Arg.(value & opt (some string) None
         & info [ "server-metrics-json" ] ~docv:"FILE"
             ~doc:"server-side kind=metrics JSONL for $(b,--boot) (sampled \
                   every 250 ms)")
  in
  let clients = Arg.(value & opt int 4 & info [ "clients"; "c" ] ~docv:"N") in
  let requests =
    Arg.(value & opt int 16
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"requests per client")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let mean_gap_ms =
    Arg.(value & opt int 10
         & info [ "mean-gap-ms" ] ~docv:"MS"
             ~doc:"mean exponential inter-arrival gap per client")
  in
  let benches =
    Arg.(value & opt_all (list string) [ [ "hist" ] ]
         & info [ "bench"; "b" ] ~docv:"BENCH,.."
             ~doc:"benchmark mix, cycled per request (`spin` allowed)")
  in
  let mode =
    Arg.(value & opt mode_conv Mode.Unsafe
         & info [ "mode"; "m" ] ~docv:"MODE" ~doc:"unsafe | checked | sync")
  in
  let scale = Arg.(value & opt int 0 & info [ "scale"; "s" ] ~docv:"S") in
  let policies =
    Arg.(value & opt_all (list policy_name_conv) [ [ "default" ] ]
         & info [ "policy" ] ~docv:"POLICY,.."
             ~doc:"per-request policy mix, cycled")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS" ~doc:"per-request deadline")
  in
  let spin_ms =
    Arg.(value & opt int 20
         & info [ "spin-ms" ] ~docv:"MS" ~doc:"busy work per `spin` request")
  in
  let burst =
    Arg.(value & opt int 0
         & info [ "burst" ] ~docv:"N"
             ~doc:"client 0 fires $(docv) back-to-back spin requests at \
                   start (forces overload sheds)")
  in
  let kill_every =
    Arg.(value & opt int 0
         & info [ "kill-every" ] ~docv:"K"
             ~doc:"chaos: clients abruptly close and reconnect after every \
                   $(docv)-th send (0 = off)")
  in
  let max_retries =
    Arg.(value & opt int 5 & info [ "max-retries" ] ~docv:"N")
  in
  let backoff_base_ms =
    Arg.(value & opt int 5 & info [ "backoff-base-ms" ] ~docv:"MS")
  in
  let backoff_cap_ms =
    Arg.(value & opt int 200 & info [ "backoff-cap-ms" ] ~docv:"MS")
  in
  let wait_cap_s =
    Arg.(value & opt float 15.0
         & info [ "wait-cap-s" ] ~docv:"S"
             ~doc:"max wait for stragglers after the last send before \
                   declaring replies lost")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the kind=serve loadgen artifact (latency \
                   percentiles; feeds `rpb report`)")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ]) in
  let run socket boot server_threads server_policy max_queue server_json
      server_metrics_json clients requests seed mean_gap_ms benches mode scale
      policies deadline_ms spin_ms burst kill_every max_retries
      backoff_base_ms backoff_cap_ms wait_cap_s json quiet =
    exit
      (loadgen_run ~socket ~boot ~server_threads ~server_policy ~max_queue
         ~server_json ~server_metrics_json ~clients ~requests ~seed
         ~mean_gap_ms ~benches:(List.concat benches) ~mode:(Mode.name mode)
         ~scale ~policies:(List.concat policies) ~deadline_ms ~spin_ms ~burst
         ~kill_every ~max_retries ~backoff_base_ms ~backoff_cap_ms
         ~wait_cap_s ~json ~quiet)
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(const run $ socket $ boot $ server_threads $ server_policy
          $ max_queue $ server_json $ server_metrics_json $ clients $ requests
          $ seed $ mean_gap_ms $ benches $ mode $ scale $ policies
          $ deadline_ms $ spin_ms $ burst $ kill_every $ max_retries
          $ backoff_base_ms $ backoff_cap_ms $ wait_cap_s $ json $ quiet)

(* ---- top: live metrics view over a running server ---- *)

let top_cmd =
  let doc =
    "Watch a running rpb server's live metrics: each refresh sends a \
     verb=stats request over the serve socket and renders throughput, \
     queue/exec/total latency percentiles (recomputed from the snapshot's \
     log2 histogram buckets), worker and steal rates, GC pause \
     percentiles, and the slow-request log counter.  With $(b,--check), \
     asserts the snapshot invariants instead of rendering (counters \
     monotone, histogram totals reconciling with the status counters) and \
     exits 4 on a violation — the CI metrics-smoke contract."
  in
  let socket =
    Arg.(value & opt string (default_socket ())
         & info [ "socket" ] ~docv:"PATH" ~doc:"server socket path")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"refresh period")
  in
  let iterations =
    Arg.(value & opt int 0
         & info [ "iterations"; "n" ] ~docv:"N"
             ~doc:"stop after N refreshes (0 = until the server goes away)")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"assert snapshot invariants instead of rendering")
  in
  let run socket interval iterations check =
    exit
      (Rpb_serve.Top.run ~socket_path:socket ~interval_s:interval ~iterations
         ~check)
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const run $ socket $ interval $ iterations $ check)

(* ---- slo: offline burn-rate replay and live health polling ---- *)

(* A --metrics-json stream is JSONL; a lone artifact is one document. *)
let slo_docs_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
  |> Bench_json.docs_of_string

let print_verdict_table verdicts =
  let module Slo = Rpb_obs.Slo in
  Printf.printf "%-28s %-6s %10s %10s %8s\n" "objective" "level" "fast-burn"
    "slow-burn" "budget";
  List.iter
    (fun v ->
      Printf.printf "%-28s %-6s %10.2f %10.2f %7.0f%%\n" v.Slo.v_name
        (Slo.level_name v.Slo.v_level)
        v.Slo.v_fast_burn v.Slo.v_slow_burn
        (100. *. v.Slo.v_budget_remaining))
    verdicts

let slo_replay_run ~files ~spec ~params ~check ~json =
  let module Slo = Rpb_obs.Slo in
  match Slo.parse_spec spec with
  | Stdlib.Error msg ->
    Printf.eprintf "slo: bad --slo spec: %s\n" msg;
    exit_usage
  | Stdlib.Ok spec -> (
    match List.concat_map slo_docs_of_file files with
    | exception Sys_error msg ->
      Printf.eprintf "slo: %s\n" msg;
      exit_usage
    | docs ->
      let r = Slo.replay ~params spec docs in
      if r.Slo.r_fed = 0 then begin
        Printf.eprintf "slo: no kind=metrics snapshot found in %s\n"
          (String.concat ", " files);
        exit_usage
      end
      else begin
        Printf.printf
          "replayed %d snapshot(s) (%d other document(s) skipped), worst \
           level %s\n"
          r.Slo.r_fed r.Slo.r_skipped
          (Slo.level_name r.Slo.r_worst);
        print_verdict_table r.Slo.r_final;
        (match json with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               output_string oc
                 (Bench_json.to_string
                    (Slo.replay_to_json r ~params ~spec));
               output_char oc '\n');
           Printf.printf "wrote slo artifact to %s\n" path);
        if Slo.violated r then begin
          Printf.printf
            "error budget violated (paged, or an objective finished \
             overspent)\n";
          if check then exit_violation else exit_ok
        end
        else exit_ok
      end)

let slo_live_run ~socket ~expect ~wait =
  let module Slo = Rpb_obs.Slo in
  let module J = Bench_json in
  let print_health j =
    let status = J.get_str (J.member "status" j) in
    Printf.printf "status %s\n" status;
    (match J.member "admission" j with
     | J.Obj _ as a ->
       Printf.printf "admission  max_queue %d  effective %d  retry_scale %dx\n"
         (J.get_int (J.member "max_queue" a))
         (J.get_int (J.member "effective_max_queue" a))
         (J.get_int (J.member "retry_scale" a))
     | _ -> ());
    Printf.printf "%-28s %-6s %10s %10s %8s\n" "objective" "level" "fast-burn"
      "slow-burn" "budget";
    List.iter
      (fun o ->
        let f k = match J.member k o with J.Null -> 0. | v -> J.get_float v in
        Printf.printf "%-28s %-6s %10.2f %10.2f %7.0f%%\n"
          (J.get_str (J.member "name" o))
          (J.get_str (J.member "level" o))
          (f "fast_burn") (f "slow_burn")
          (100. *. f "budget_remaining"))
      (J.get_list (J.member "objectives" j));
    status
  in
  let deadline = Unix.gettimeofday () +. wait in
  let rec poll last_err =
    match Rpb_serve.Top.fetch_health ~retries:0 ~socket_path:socket () with
    | Stdlib.Error msg ->
      if Unix.gettimeofday () < deadline then begin
        (try Unix.sleepf 0.2 with Unix.Unix_error _ -> ());
        poll (Some msg)
      end
      else begin
        Printf.eprintf "slo: %s\n"
          (Option.value last_err ~default:msg);
        exit_usage
      end
    | Stdlib.Ok j -> (
      match print_health j with
      | exception J.Parse_error msg ->
        Printf.eprintf "slo: bad health document: %s\n" msg;
        exit_usage
      | status -> (
        match expect with
        | None -> exit_ok
        | Some want when want = status -> exit_ok
        | Some want ->
          if Unix.gettimeofday () < deadline then begin
            (try Unix.sleepf 0.2 with Unix.Unix_error _ -> ());
            poll None
          end
          else begin
            Printf.eprintf "slo: expected status %s, still %s after %gs\n"
              want status wait;
            exit_violation
          end))
  in
  poll None

let slo_cmd =
  let doc =
    "Evaluate service-level objectives: replay a --metrics-json JSONL \
     stream offline through the burn-rate engine (exit 4 with --check on \
     a budget violation — the CI gate), or poll a live server's health \
     verb with --socket, optionally waiting for an expected \
     ok/degraded/unhealthy status."
  in
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE"
             ~doc:"metrics JSONL streams (or single JSON artifacts) to \
                   replay, chronological order")
  in
  let spec =
    Arg.(value & opt string "avail:0.99"
         & info [ "slo" ] ~docv:"SPEC"
             ~doc:"objectives to evaluate (same grammar as `rpb serve \
                   --slo`)")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"exit 4 when the replay ever paged or finished with an \
                   objective's budget overspent")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"write the kind=slo artifact (burn-rate series; feeds \
                   `rpb report`)")
  in
  let fast_s =
    Arg.(value & opt float 60.0
         & info [ "fast-s" ] ~docv:"SECONDS" ~doc:"fast burn window")
  in
  let slow_s =
    Arg.(value & opt float 3600.0
         & info [ "slow-s" ] ~docv:"SECONDS" ~doc:"slow burn window")
  in
  let page_burn =
    Arg.(value & opt float 14.4
         & info [ "page-burn" ] ~docv:"X"
             ~doc:"both-window burn threshold for page")
  in
  let warn_burn =
    Arg.(value & opt float 6.0
         & info [ "warn-burn" ] ~docv:"X"
             ~doc:"both-window burn threshold for warn")
  in
  let hysteresis =
    Arg.(value & opt int 3
         & info [ "hysteresis" ] ~docv:"N"
             ~doc:"consecutive calm evaluations before stepping down a \
                   level")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"poll a live server's health verb instead of replaying \
                   files")
  in
  let expect =
    Arg.(value & opt (some (enum
           [ ("ok", "ok"); ("degraded", "degraded");
             ("unhealthy", "unhealthy") ])) None
         & info [ "expect" ] ~docv:"STATUS"
             ~doc:"with --socket: poll until the overall status is \
                   $(docv) (exit 4 when --wait expires first)")
  in
  let wait =
    Arg.(value & opt float 10.0
         & info [ "wait" ] ~docv:"SECONDS"
             ~doc:"with --socket: polling deadline for --expect (also the \
                   connect retry budget)")
  in
  let run files spec check json fast_s slow_s page_burn warn_burn hysteresis
      socket expect wait =
    if fast_s <= 0. || slow_s <= 0. || fast_s > slow_s then begin
      Printf.eprintf
        "slo: --fast-s/--slow-s must be > 0 with fast <= slow (got %g/%g)\n"
        fast_s slow_s;
      exit exit_usage
    end;
    if hysteresis < 1 then begin
      Printf.eprintf "slo: --hysteresis must be >= 1 (got %d)\n" hysteresis;
      exit exit_usage
    end;
    match (socket, files) with
    | Some socket, [] -> exit (slo_live_run ~socket ~expect ~wait)
    | Some _, _ :: _ ->
      Printf.eprintf "slo: --socket and replay FILEs are mutually exclusive\n";
      exit exit_usage
    | None, [] ->
      Printf.eprintf
        "slo: nothing to do: name metrics JSONL FILEs to replay, or \
         --socket to poll a live server\n";
      exit exit_usage
    | None, files ->
      let params =
        {
          Rpb_obs.Slo.fast_s;
          slow_s;
          page_burn;
          warn_burn;
          hysteresis;
        }
      in
      exit (slo_replay_run ~files ~spec ~params ~check ~json)
  in
  Cmd.v (Cmd.info "slo" ~doc)
    Term.(const run $ files $ spec $ check $ json $ fast_s $ slow_s
          $ page_burn $ warn_burn $ hysteresis $ socket $ expect $ wait)

let report_run ~files ~out ~md =
  let a = Rpb_obs.Report.load_files files in
  List.iter
    (fun (path, msg) -> Printf.eprintf "report: skipping %s: %s\n" path msg)
    a.Rpb_obs.Report.errors;
  Rpb_obs.Report.write_html ~path:out a;
  Printf.printf
    "wrote %s (%d bench record(s), %d profile(s), %d check(s), %d fault \
     sweep(s), %d comparison(s), %d serve report(s), %d slo replay(s))\n"
    out
    (List.length a.Rpb_obs.Report.bench)
    (List.length a.Rpb_obs.Report.profiles)
    (List.length a.Rpb_obs.Report.checks)
    (List.length a.Rpb_obs.Report.faults)
    (List.length a.Rpb_obs.Report.compares)
    (List.length a.Rpb_obs.Report.serves)
    (List.length a.Rpb_obs.Report.slos);
  (match md with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () -> output_string oc (Rpb_obs.Report.to_markdown a));
     Printf.printf "wrote %s\n" path);
  if a.Rpb_obs.Report.sources = [] then begin
    Printf.eprintf "report: no artifact parsed\n";
    exit_usage
  end
  else exit_ok

let report_cmd =
  let doc =
    "Merge BENCH/PROFILE/CHECK/FAULT/compare JSON artifacts into one \
     self-contained HTML dashboard: speedup curves, the fear-spectrum \
     overhead table, per-benchmark work/span/parallelism, correctness and \
     fault verdicts, and the baseline trajectory."
  in
  let files =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE" ~doc:"artifact JSON files, any mix of kinds")
  in
  let out =
    Arg.(value & opt string "REPORT.html"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"HTML output path")
  in
  let md =
    Arg.(value & opt (some string) None
         & info [ "md" ] ~docv:"FILE"
             ~doc:"also write a markdown digest (CI job summaries)")
  in
  let run files out md = exit (report_run ~files ~out ~md) in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ files $ out $ md)

let () =
  let doc = "Rust Parallel Benchmarks (RPB), reproduced in OCaml" in
  let exits =
    [
      Cmd.Exit.info exit_ok ~doc:"on success.";
      Cmd.Exit.info exit_usage
        ~doc:"on usage errors: unknown flags, benchmarks, policies, modes or \
              inputs, unparseable artifacts.";
      Cmd.Exit.info exit_gate
        ~doc:"when a comparison gate trips (perf regression).";
      Cmd.Exit.info exit_violation
        ~doc:"when a correctness, fault or robustness check is violated \
              (failed verification, lost or mismatched replies).";
    ]
  in
  let info = Cmd.info "rpb" ~doc ~exits in
  let code =
    Cmd.eval
      (Cmd.group info
         [ list_cmd; patterns_cmd; run_cmd; bench_cmd; stats_cmd; check_cmd;
           faults_cmd; profile_cmd; compare_cmd; serve_cmd; loadgen_cmd;
           top_cmd; slo_cmd; report_cmd ])
  in
  (* cmdliner reports its own usage errors as 124; fold them into the
     documented usage code so every surface agrees. *)
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
