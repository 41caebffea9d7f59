(* The benchmark's own tests: its statistics, its refusal of thin tails, its
   result line when a rung has no sample, its determinism in the seed, and
   the invariant that makes the serve residual meaningful (client latency
   covers the server's queue + exec). *)

open Perfbench
module Pool = Rpb_pool.Pool
module Rng = Rpb_prim.Rng
module Serve = Rpb_serve.Serve

let close = Alcotest.(check (float 1e-9))

let test_percentile () =
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  close "median" 500. (Stat.median xs);
  close "median agrees with Rpb_obs.Stats" (Rpb_obs.Stats.percentile_sorted sorted 50.)
    (Stat.median xs);
  close "median of two is the lower (nearest rank)" 1. (Stat.median [| 2.; 1. |]);
  close "lower quartile" 250. (Stat.lower_quartile xs);
  close "lower quartile agrees with Rpb_obs.Stats"
    (Rpb_obs.Stats.percentile_sorted sorted 25.) (Stat.lower_quartile xs);
  List.iter
    (fun pct ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "p%g agrees with Rpb_obs.Stats" pct)
        (Some (Rpb_obs.Stats.percentile_sorted sorted pct))
        (Stat.tail xs pct))
    [ 1.; 25.; 50.; 90.; 99. ]

let test_geomean () =
  close "geomean" 4. (Stat.geomean [| 1.; 4.; 16. |]);
  close "one value" 2.5 (Stat.geomean [| 2.5 |]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stat.geomean: non-positive")
    (fun () -> ignore (Stat.geomean [| 1.; 0. |]))

let test_tail_refused () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check (option (float 0.))) "999 samples: p99 refused" None (Stat.tail (xs 999) 99.);
  Alcotest.(check (option (float 0.))) "1000 samples: p99 reported" (Some 989.)
    (Stat.tail (xs 1000) 99.);
  Alcotest.(check (option (float 0.))) "199 samples: p95 refused" None (Stat.tail (xs 199) 95.);
  Alcotest.(check (option (float 0.))) "empty" None (Stat.tail [||] 50.)

let test_refused_raises () =
  Alcotest.check_raises "tail_exn"
    (Stat.Refused "lat: 50 samples leave fewer than 10 beyond p99") (fun () ->
      ignore (Stat.tail_exn "lat" (Array.make 50 1.) 99.))

(* A benchmark whose every run failed its check leaves a rung with no
   sample: the result line still reports attempted and failed, with correct
   false, and the exit code is 1. *)
let test_no_samples_reported () =
  let r = { (Loop.create_result ()) with attempted = 3; failed = 3 } in
  let line, code =
    Outcome.report ~attempted:r.attempted ~failed:r.failed (fun () ->
        [ ("seq_ms", "ms", Loop.time_ms r Loop.Seq "hist") ])
  in
  let module J = Rpb_benchmarks.Bench_json in
  let j = J.of_string line in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check bool) "correct" false (J.get_bool (J.member "correct" j));
  Alcotest.(check int) "attempted" 3 (J.get_int (J.member "attempted" j));
  Alcotest.(check int) "failed" 3 (J.get_int (J.member "failed" j));
  let line, code =
    Outcome.report ~attempted:2 ~failed:0 (fun () -> [ ("seq_ms", "ms", 1.5) ])
  in
  Alcotest.(check int) "clean exit code" 0 code;
  Alcotest.(check bool) "clean correct" true
    (J.get_bool (J.member "correct" (J.of_string line)))

let test_self_time () =
  Spans.start ();
  let t = Spans.record ~layer:"serve" ~name:"request" ~t0:0. ~t1:1. () in
  ignore (Spans.record ~parent:t ~layer:"pool" ~name:"exec" ~t0:0.25 ~t1:0.75 ());
  Spans.with_span "benchmarks" "outer" (fun () ->
      Spans.with_span "text" "inner" (fun () -> ()));
  Spans.stop ();
  let self = Spans.self_ms () in
  let get l = Option.value (Hashtbl.find_opt self l) ~default:(-1.) in
  close "serve self = request - exec" 500. (get "serve");
  close "pool self" 500. (get "pool");
  Alcotest.(check bool) "nested spans recorded" true (get "benchmarks" >= 0. && get "text" >= 0.);
  Alcotest.(check int) "span count" 4 (Spans.count ())

let test_same_seed () =
  let order seed = Suite.shuffle (Rng.create seed) (Array.init 28 Fun.id) in
  Alcotest.(check (array int)) "job order" (order 7) (order 7);
  Alcotest.(check bool) "another seed, another order" false (order 7 = order 8);
  let sched seed = Gen.schedule (Rng.create seed) ~rate:100. ~n:500 ~mix:[ "a"; "b" ] in
  Alcotest.(check bool) "arrival schedule" true (sched 3 = sched 3);
  let draw seed = Gen.draw (Rng.create seed) ~n:200 ~mix:[ "a"; "b"; "c" ] in
  Alcotest.(check (array string)) "window benches" (draw 3) (draw 3);
  let gaps = sched 3 in
  Alcotest.(check bool) "arrivals increase" true
    (Array.for_all Fun.id
       (Array.init (Array.length gaps - 1) (fun i -> fst gaps.(i) < fst gaps.(i + 1))))

(* Every rung of a benchmark digests to one value, and a second instance of
   the same input to the same value. *)
let test_digests_agree () =
  let pool = Pool.create ~num_workers:2 () and one = Pool.create ~num_workers:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool; Pool.shutdown one)
    (fun () ->
      List.iter
        (fun name ->
          let b = Suite.find name in
          let digest inst kind =
            ignore (Suite.time_op inst kind);
            match Suite.check inst kind with
            | Some d -> d
            | None -> Alcotest.fail (name ^ ": verify failed")
          in
          let inst = Suite.prepare pool ~scale:0 b in
          let reference = digest inst Suite.Seq in
          List.iter
            (fun kind ->
              Alcotest.(check int)
                (name ^ " " ^ Suite.kind_name kind)
                reference (digest inst kind))
            Rpb_benchmarks.Mode.
              [ Suite.Par Unsafe; Suite.Par Checked; Suite.Par Synchronized ];
          Alcotest.(check int) (name ^ " elision") reference
            (digest (Suite.prepare one ~scale:0 b) (Suite.Par Rpb_benchmarks.Mode.Unsafe));
          Alcotest.(check int) (name ^ " second instance") reference
            (digest (Suite.prepare pool ~scale:0 b) Suite.Seq))
        [ "hist"; "sort"; "isort"; "dedup"; "mis" ])

let test_residual_non_negative () =
  let socket =
    Printf.sprintf "%s/perfbench-%d.sock" (Filename.get_temp_dir_name ()) (Unix.getpid ())
  in
  let cfg =
    { (Serve.default_config ~socket_path:socket) with
      threads = 2; max_queue = 64; preload = List.map (fun (b, s) -> (b, None, s)) Load.small_mix;
      quiet = true }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.fail ("server start: " ^ e)
  | Ok t ->
    Fun.protect ~finally:(fun () -> Serve.stop t) @@ fun () ->
    let n = 60 in
    let c = Gen.open_client ~socket ~connections:2 ~requests:n in
    Fun.protect ~finally:(fun () -> Gen.close_client c) @@ fun () ->
    let arrivals = Gen.schedule (Rng.create 1) ~rate:100. ~n ~mix:Load.small_mix in
    let p =
      Gen.run_phase c ~first:0 ~arrivals
        ~sample_every:0. ~grace_s:10.
    in
    let slots = Gen.slots_of c p in
    let count st = Array.fold_left (fun a (s : Gen.slot) -> if s.status = st then a + 1 else a) 0 slots in
    (* Sheds are admission control under a loaded test host; errors and lost
       replies are not. *)
    Alcotest.(check (list int)) "errors, lost" [ 0; 0 ] [ count Gen.Error; count Gen.Lost ];
    Alcotest.(check bool) "some ok replies" true (count Gen.Ok > 0);
    Array.iter
      (fun (s : Gen.slot) ->
        if Gen.latency_ms s < s.queue_ms +. s.exec_ms then
          Alcotest.failf "request %s: latency %.3f ms < queue %.3f + exec %.3f" s.bench
            (Gen.latency_ms s) s.queue_ms s.exec_ms)
      slots;
    Alcotest.(check bool) "residuals non-negative" true
      (Array.for_all (fun r -> r >= 0.) (Gen.residual_ms slots));
    (* The saturating window stays below the admission bound, so even a
       loaded host sees no shed. *)
    let c = Gen.open_client ~socket ~connections:2 ~requests:n in
    Fun.protect ~finally:(fun () -> Gen.close_client c) @@ fun () ->
    let requests = Gen.draw (Rng.create 2) ~n ~mix:Load.small_mix in
    let w =
      Gen.run_window c ~first:0 ~requests ~window:Load.window
        ~grace_s:10.
    in
    let slots = Gen.slots_of c w in
    Alcotest.(check int) "window: every reply ok" 0 (Gen.failed slots);
    Alcotest.(check bool) "window: latency covers queue + exec" true
      (Array.for_all (fun r -> r >= 0.) (Gen.residual_ms slots));
    let ok, span = Gen.served slots in
    Alcotest.(check bool) "window: throughput" true (ok = n && span > 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "percentile is nearest rank" `Quick test_percentile;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "thin tail refused" `Quick test_tail_refused;
          Alcotest.test_case "refused tail raises" `Quick test_refused_raises;
          Alcotest.test_case "no samples still reported" `Quick test_no_samples_reported;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same order and schedule" `Quick test_same_seed;
          Alcotest.test_case "digests agree across rungs" `Quick test_digests_agree;
        ] );
      ( "serve",
        [ Alcotest.test_case "latency covers queue + exec; window never sheds" `Quick
            test_residual_non_negative ] );
    ]
