(* perfbench: the repository's benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 --rpb PATH
              [--out DIR]

   One run is a closed loop over every registry benchmark (seq, unsafe at
   P=2, and the checked and sync sets) followed by a saturating window of
   requests against [rpb serve] processes (PATH); a traced run adds an open
   loop of small jobs at two fixed rates.  The workload sets the input sizes
   of the closed loop and of the window.  The last line of standard output is one JSON
   object: correct, attempted, failed, and the end-to-end metrics (trace 0)
   or the per-layer metrics (trace 1).  The exit code is 0 only when every
   operation was correct. *)

open Perfbench
module Pool = Rpb_pool.Pool
module Rng = Rpb_prim.Rng
module J = Rpb_benchmarks.Bench_json

(* A workload: the closed loop's input size per benchmark, and the serve
   window's mix and request count (7-13 s of saturated server).  [compute]
   takes each benchmark's own scale (an unsafe P=2 run of 1-30 ms) in both
   phases; [small] takes scale 0, the input size of the open-loop serve
   traffic, in both: about as many pool tasks per job as [compute] in a
   third to a fifth of the time. *)
type workload = {
  scale_of : Suite.bench -> int;
  window_requests : int;
}

let workloads =
  [ ("compute", { scale_of = (fun b -> b.Suite.scale); window_requests = 840 });
    ("small", { scale_of = (fun _ -> 0); window_requests = 2400 }) ]

let serve_mix w =
  List.map (fun (name, _) -> (name, w.scale_of (Suite.find name))) Load.small_mix

type run = {
  setup_s : float;
  setup_times : float array;  (** closed-loop set-up, per repetition *)
  serve_setup_s : float;
  loop : Loop.result;
  prepare_ms : (string * float) list;
  probes : (string * float) list;
  load : Load.result;
}

let run_once w ~seed ~seconds ~traced ~rpb ~socket =
  let scale_of = w.scale_of in
  (* Independent streams, so the serve schedule does not depend on how many
     closed-loop passes fit in the time. *)
  let rng k = Rng.create (Rng.hash64 ((seed * 16) + k)) in
  (* Traced: two set-ups with spans, two without, interleaved. *)
  let st = Loop.setup ~reps:(if traced then 4 else 3) ~traced ~scale_of Suite.all in
  let refs = Loop.references st.insts in
  let inst (b : Suite.bench) =
    List.find (fun (i : Suite.inst) -> i.bench.name = b.name) st.insts
  in
  (* The serial elision: unsafe on a 1-worker pool, traced runs only. *)
  let elision_pool = if traced then Some (Pool.create ~num_workers:1 ()) else None in
  let elision =
    match elision_pool with
    | Some pool ->
      List.map (fun b -> (Loop.Elision, Suite.prepare pool ~scale:(scale_of b) b)) Suite.all
    | None -> []
  in
  let ops =
    List.concat_map (fun i -> [ (Loop.Seq, i); (Loop.Par, i) ]) st.insts
    @ List.map (fun b -> (Loop.Checked, inst b)) Suite.checked_set
    @ List.map (fun b -> (Loop.Sync, inst b)) Suite.sync_set
    @ elision
  in
  let loop = Loop.run ~rng:(rng 1) ~refs ~traced ~seconds ops in
  let probes =
    if not traced then []
    else begin
      Spans.resume ();
      Fun.protect ~finally:Spans.stop (fun () -> Probes.run st.pool ~rng:(rng 2))
    end
  in
  let setup_s = st.setup_s and prepare_ms = st.prepare_ms in
  Option.iter Pool.shutdown elision_pool;
  Pool.shutdown st.pool;
  (* The serve phase's client runs from a compacted heap, without the
     closed loop's instances. *)
  Gc.compact ();
  let load =
    Load.run ~rpb ~socket ~rng:(rng 3) ~traced ~mix:(serve_mix w)
      ~window_requests:w.window_requests
  in
  {
    setup_s = setup_s +. load.setup_s;
    setup_times = st.times;
    serve_setup_s = load.setup_s;
    loop;
    prepare_ms;
    probes;
    load;
  }

let family (f : string) = List.filter (fun (b : Suite.bench) -> b.family = f) Suite.all

let geomean_ms ?only r rung benches =
  Stat.geomean
    (Array.of_list
       (List.map (fun (b : Suite.bench) -> Loop.time_ms ?only r rung b.name) benches))

let rates = [ ("lo", Load.lo); ("hi", Load.hi) ]

(* The closed-loop end-to-end metrics over the passes [only] keeps. *)
let loop_metrics ?only r =
  [ ("seq_ms", "ms", geomean_ms ?only r Loop.Seq Suite.all) ]
  @ List.map
      (fun f -> ("job_ms." ^ f, "ms", geomean_ms ?only r Loop.Par (family f)))
      Suite.families
  @ [ ("checked_ms", "ms", geomean_ms ?only r Loop.Checked Suite.checked_set);
      ("sync_ms", "ms", geomean_ms ?only r Loop.Sync Suite.sync_set) ]

(* (name, unit, value), in BENCHMARK.json order. *)
let end_to_end run =
  [ ("setup_s", "s", run.setup_s) ]
  @ loop_metrics run.loop
  @ [ ("max_rps", "1/s", run.load.max_rps) ]

let self_layers =
  [ "pool"; "core"; "parseq"; "chash"; "mq"; "graph"; "text"; "geom";
    "benchmarks"; "serve" ]

let per_layer run self =
  let r = run.loop and l = run.load in
  let rung_metrics rung benches =
    List.map
      (fun (b : Suite.bench) ->
        ( Printf.sprintf "rung.%s_ms.%s" (Loop.rung_name rung) b.name,
          "ms",
          Loop.time_ms r rung b.name ))
      benches
  in
  let jobs f = Array.of_list (List.filter (fun (j : Loop.job) -> j.family = f) r.jobs) in
  let per_job f field =
    Rpb_obs.Stats.mean (Array.map (fun j -> float_of_int (field j)) (jobs f))
  in
  let steal_ratio f =
    let ok = Array.fold_left (fun a (j : Loop.job) -> a + j.steals_ok) 0 (jobs f) in
    let failed = Array.fold_left (fun a (j : Loop.job) -> a + j.steals_failed) 0 (jobs f) in
    if ok + failed = 0 then 0. else float_of_int ok /. float_of_int (ok + failed)
  in
  let probe name = (name, "ns", List.assoc name run.probes) in
  rung_metrics Loop.Seq Suite.all
  @ rung_metrics Loop.Elision Suite.all
  @ rung_metrics Loop.Par Suite.all
  @ rung_metrics Loop.Checked Suite.checked_set
  @ rung_metrics Loop.Sync Suite.sync_set
  @ List.map (fun (f, ms) -> ("prepare_ms." ^ f, "ms", ms)) run.prepare_ms
  @ List.map (fun (b, ms) -> ("verify_ms." ^ b, "ms", ms)) l.verify_ms
  @ List.concat_map
      (fun f ->
        [ ("pool.tasks." ^ f, "count", per_job f (fun j -> j.tasks));
          ("pool.idle." ^ f, "count", per_job f (fun j -> j.idle));
          ("pool.steal_ok_ratio." ^ f, "ratio", steal_ratio f) ])
      Suite.families
  @ [ probe "pool.join_ns"; probe "pool.task_ns" ]
  @ List.concat_map
      (fun f ->
        [ ( "gc.minor_words." ^ f,
            "words",
            Rpb_obs.Stats.mean (Array.map (fun (j : Loop.job) -> j.minor_words) (jobs f)) );
          ("gc.major_collections." ^ f, "count", per_job f (fun j -> j.major_collections)) ])
      Suite.families
  @ [ probe "core.validate_ns"; probe "core.monotone_ns"; probe "mq.pushpop_ns";
      probe "chash.insert_ns" ]
  @ List.concat_map
      (fun (rname, rate) ->
        let p = Load.rung l rate in
        let pct name xs =
          [ (Printf.sprintf "serve.%s.p50.%s" name rname, "ms", Stat.median xs);
            ( Printf.sprintf "serve.%s.p99.%s" name rname,
              "ms",
              Stat.tail_exn (Printf.sprintf "serve.%s.p99.%s" name rname) xs 99. ) ]
        in
        let lat = Gen.lat p.slots in
        [ ("lat_p50_ms." ^ rname, "ms", Stat.median lat);
          ("lat_p99_ms." ^ rname, "ms", Stat.tail_exn ("lat_p99_ms." ^ rname) lat 99.) ]
        @ pct "queue_ms" (Gen.queue_ms p.slots)
        @ pct "exec_ms" (Gen.exec_ms p.slots)
        @ pct "residual_ms" (Gen.residual_ms p.slots)
        @ [ ("serve.shed." ^ rname, "count", float_of_int p.shed);
            ("serve.occupancy." ^ rname, "count", Rpb_obs.Stats.mean p.occupancy);
            ( "gen.late_ms.p99." ^ rname,
              "ms",
              Stat.tail_exn ("gen.late_ms.p99." ^ rname) (Gen.late p.slots) 99. ) ])
      rates
  @ List.map
      (fun layer ->
        ( "self_ms." ^ layer,
          "ms",
          Option.value (Hashtbl.find_opt self layer) ~default:0. ))
      self_layers

(* Spans for the served requests, from the client's records: the request
   from its scheduled send to its reply (layer serve), and inside it the
   server's exec time (the benchmark's layer). *)
let record_serve_spans run =
  List.iter
    (fun (r : Load.rung) ->
      Array.iter
        (fun (s : Gen.slot) ->
          if s.status = Gen.Ok then begin
            let parent =
              Spans.record ~layer:"serve" ~name:("request:" ^ s.bench) ~t0:s.sched
                ~t1:s.recv ()
            in
            let t0 = s.sched +. (s.queue_ms /. 1e3) in
            ignore
              (Spans.record ~parent ~layer:(Suite.find s.bench).layer
                 ~name:("exec:" ^ s.bench) ~t0 ~t1:(t0 +. (s.exec_ms /. 1e3)) ())
          end)
        r.slots)
    run.load.rungs

let attempted run = run.loop.attempted + run.load.attempted
let failed run = run.loop.failed + run.load.failed

(* Tracing overhead of an end-to-end metric: its value over the spans-on
   passes (or set-up repetitions) minus its value over the spans-off ones of
   the same run, which do the same work otherwise.  It is resolved only when
   it exceeds the gap between the two halves of the spans-off passes. *)
let overhead_of value =
  let on = value (fun i -> i mod 2 = 0) and off = value (fun i -> i mod 2 = 1) in
  let noise = Float.abs (value (fun i -> i mod 4 = 1) -. value (fun i -> i mod 4 = 3)) in
  (on, off, noise)

let overheads run =
  let setup only =
    let times = List.filteri (fun i _ -> only i) (Array.to_list run.setup_times) in
    Stat.median (Array.of_list times) +. run.serve_setup_s
  in
  let loop = loop_metrics run.loop in
  ("setup_s", "s", overhead_of setup)
  :: List.mapi
       (fun k (name, unit, _) ->
         ( name,
           unit,
           overhead_of (fun only ->
               let _, _, v = List.nth (loop_metrics ~only run.loop) k in
               v) ))
       loop

(* Self time per layer and the tracing overhead of every end-to-end metric,
   written next to the spans and printed.  [max_rps] has none: the serve
   spans are rebuilt from the client's records after the run. *)
let write_summary ~path ~workload ~seed ~self run =
  let overhead =
    List.map
      (fun (name, unit, (on, off, noise)) ->
        let resolved = Float.abs (on -. off) > noise in
        Printf.eprintf "overhead %-16s spans off %10.3f on %10.3f %s (%s: noise %.3f)\n"
          name off on unit (if resolved then "resolved" else "unresolved") noise;
        ( name,
          J.Obj
            [ ("spans_off", J.Float off); ("spans_on", J.Float on);
              ("overhead", J.Float (on -. off)); ("noise", J.Float noise);
              ("resolved", J.Bool resolved); ("unit", J.Str unit) ] ))
      (overheads run)
  in
  let self_ms =
    List.map
      (fun layer ->
        let ms = Option.value (Hashtbl.find_opt self layer) ~default:0. in
        Printf.eprintf "self %-10s %12.1f ms\n" layer ms;
        (layer, J.Float ms))
      self_layers
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("workload", J.Str workload); ("seed", J.Int seed);
            ("spans", J.Int (Spans.count ())); ("self_ms", J.Obj self_ms);
            ("overhead", J.Obj overhead) ]));
  output_char oc '\n';
  close_out oc

let usage () =
  prerr_endline
    "usage: main.exe --workload compute|small --seed N --seconds S --trace \
     0|1 --rpb PATH [--out DIR]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (arg k) with Some v -> v | None -> usage () in
  let workload = arg "workload" in
  let w = match List.assoc_opt workload workloads with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let traced = int "trace" = 1 in
  let rpb = arg "rpb" in
  let out = Option.value (Hashtbl.find_opt args "out") ~default:"." in
  (* Relative, so the path stays within the socket-name limit wherever the
     checkout lives. *)
  let socket = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  Spans.start ();
  Spans.stop ();
  let run = run_once w ~seed ~seconds ~traced ~rpb ~socket in
  let metrics () =
    if not traced then end_to_end run
    else begin
      record_serve_spans run;
      let self = Spans.self_ms () in
      let metrics = per_layer run self in
      let stem = Filename.concat out (Printf.sprintf "trace-%s-%d" workload seed) in
      Spans.write (stem ^ ".json");
      write_summary ~path:(stem ^ "-summary.json") ~workload ~seed ~self run;
      metrics
    end
  in
  let line, code = Outcome.report ~attempted:(attempted run) ~failed:(failed run) metrics in
  print_endline line;
  exit code
