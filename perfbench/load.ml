(* The serve phase: [rpb serve --threads 2] driven by {!Gen} from this
   process over two connections.  Every run keeps the server saturated with
   a closed window of the workload's serve mix, for [max_rps].  A traced run
   first adds an open loop of the small mix at two fixed rates, [lo] and
   [hi], for the latency metrics, which have no end-to-end bound.

   Each phase's requests are spread over [boots] server processes, one after
   the other, and pooled: on a small host one server process can run its
   jobs a third faster or slower than the next for its whole life, and
   pooling several keeps that from deciding a whole run. *)

let now = Rpb_prim.Timing.now

(* The open loop's traffic: small preloaded unsafe jobs, 1-3 ms of execution
   each. *)
let small_mix = [ ("hist", 0); ("sort", 0); ("isort", 0); ("dedup", 0) ]
let threads = 2
let boots = 12

(* Admission bound: deep enough that a host stall of a few hundred ms queues
   at [hi] rather than sheds, and well above [window]. *)
let max_queue = 64
let lo = 75.
let hi = 100.

(* Requests per rate: enough that p99 has 10 samples beyond it. *)
let rate_requests = 1000
let warm_requests = 10

(* The saturating window: requests kept outstanding, so the executor always
   has a queued job and never sheds one. *)
let window = 8

(* One open-loop rate: every boot's requests, pooled. *)
type rung = {
  rate : float;
  slots : Gen.slot array;
  occupancy : float array;  (** [serve.occupancy] samples *)
  shed : int;  (** [serve.shed] counter delta *)
}

type result = {
  setup_s : float;
  rungs : rung list;  (** [lo], [hi]; traced runs only *)
  max_rps : float;
  attempted : int;
  failed : int;
  verify_ms : (string * float) list;
      (** in-process verify + snapshot, per bench of the window mix *)
}

let rung res rate = List.find (fun r -> r.rate = rate) res.rungs

(* Reference digests of the (bench, scale) pairs of [mix], from in-process
   instances of the same benchmarks at the same scales; with each, the
   median time of verify + snapshot, the work the server does after
   [exec_ms] stops. *)
let references mix =
  let pool = Rpb_pool.Pool.create ~num_workers:threads () in
  Fun.protect
    ~finally:(fun () -> Rpb_pool.Pool.shutdown pool)
    (fun () ->
      List.map
        (fun (name, scale) ->
          let inst = Suite.prepare pool ~scale (Suite.find name) in
          let kind = Suite.Par Rpb_benchmarks.Mode.Unsafe in
          ignore (Suite.time_op inst kind);
          let digest =
            match Suite.check inst kind with
            | Some d -> d
            | None -> failwith ("perfbench: serve reference failed for " ^ name)
          in
          let ms =
            Stat.median
              (Array.init 5 (fun _ ->
                   let t0 = now () in
                   ignore (Suite.check inst kind);
                   (now () -. t0) *. 1e3))
          in
          ((name, scale), (digest, ms)))
        mix)

(* Ok replies per second of the saturated server, pooled over the boots:
   the executor's capacity for the mix, wire to reply. *)
let capacity parts =
  let ok, span =
    List.fold_left
      (fun (o, t) part ->
        let o', t' = Gen.served part in
        (o + o', t +. t'))
      (0, 0.) parts
  in
  float_of_int ok /. span

let run ~rpb ~socket ~rng ~traced ~mix ~window_requests =
  let open_mix = if traced then small_mix else [] in
  let preload = List.sort_uniq compare (mix @ open_mix) in
  let t0 = now () in
  let refs = references preload in
  let refs_s = now () -. t0 in
  let per_boot n = (n + boots - 1) / boots in
  let schedules =
    List.init boots (fun _ ->
        let warm = Gen.schedule rng ~rate:hi ~n:warm_requests ~mix in
        let rates =
          if traced then
            List.map
              (fun rate ->
                (rate, Gen.schedule rng ~rate ~n:(per_boot rate_requests) ~mix:small_mix))
              [ lo; hi ]
          else []
        in
        (warm, rates, Gen.draw rng ~n:(per_boot window_requests) ~mix))
  in
  let boot_one (warm, rates, requests) =
    let t = now () in
    let server = Gen.boot ~rpb ~socket ~threads ~max_queue ~preload in
    let boot_s = now () -. t in
    Fun.protect ~finally:(fun () -> Gen.shutdown server) @@ fun () ->
    let n =
      List.fold_left (fun acc (_, a) -> acc + Array.length a)
        (Array.length warm + Array.length requests) rates
    in
    let c = Gen.open_client ~socket ~connections:2 ~requests:n in
    Fun.protect ~finally:(fun () -> Gen.close_client c) @@ fun () ->
    let phase first arrivals ~sample =
      Gen.run_phase c ~first ~arrivals ~sample_every:(if sample then 0.2 else 0.)
        ~grace_s:10.
    in
    let w = phase 0 warm ~sample:false in
    let first, phases =
      List.fold_left
        (fun (first, acc) (rate, arrivals) ->
          let p = phase first arrivals ~sample:true in
          (first + p.Gen.n, (rate, (Gen.slots_of c p, p)) :: acc))
        (w.Gen.n, []) rates
    in
    let sat = Gen.run_window c ~first ~requests ~window ~grace_s:10. in
    (boot_s, Gen.slots_of c w, List.rev phases, Gen.slots_of c sat, c.protocol_errors)
  in
  let per_boot_results = List.map boot_one schedules in
  let rungs =
    List.map
      (fun rate ->
        let parts = List.map (fun (_, _, ps, _, _) -> List.assoc rate ps) per_boot_results in
        {
          rate;
          slots = Array.concat (List.map fst parts);
          occupancy = Array.concat (List.map (fun (_, p) -> p.Gen.occupancy) parts);
          shed = List.fold_left (fun acc (_, p) -> acc + p.Gen.shed_counter) 0 parts;
        })
      (if traced then [ lo; hi ] else [])
  in
  let warm = Array.concat (List.map (fun (_, w, _, _, _) -> w) per_boot_results) in
  let sat_parts = List.map (fun (_, _, _, s, _) -> s) per_boot_results in
  let sat = Array.concat sat_parts in
  let max_rps = capacity sat_parts in
  List.iter
    (fun r ->
      let lat = Gen.lat r.slots in
      Printf.eprintf "perfbench: serve %.0f/s: %d requests, %d not ok, p50 %.2f ms, p99 %s\n%!"
        r.rate (Array.length r.slots) (Gen.failed r.slots) (Stat.median lat)
        (match Stat.tail lat 99. with Some v -> Printf.sprintf "%.2f ms" v | None -> "-"))
    rungs;
  Printf.eprintf "perfbench: serve window %d: %d requests, %d not ok, %.1f ok/s (per boot:%s)\n%!"
    window (Array.length sat) (Gen.failed sat) max_rps
    (String.concat "" (List.map (fun p -> Printf.sprintf " %.0f" (capacity [ p ])) sat_parts));
  (* Correctness: every request ends in an ok reply that carries the
     reference digest, and its client latency covers the server's queue +
     exec.  A shed, an error or a lost reply is a failure. *)
  let failed_in slots =
    Array.fold_left
      (fun acc (s : Gen.slot) ->
        match s.status with
        | Gen.Ok ->
          let digest, _ = List.assoc (s.bench, s.scale) refs in
          if s.digest <> digest || Gen.latency_ms s < s.queue_ms +. s.exec_ms
          then acc + 1
          else acc
        | _ -> acc + 1)
      0 slots
  in
  let all = warm :: sat :: List.map (fun r -> r.slots) rungs in
  let protocol_errors =
    List.fold_left (fun acc (_, _, _, _, e) -> acc + e) 0 per_boot_results
  in
  {
    setup_s =
      refs_s
      +. Stat.median (Array.of_list (List.map (fun (b, _, _, _, _) -> b) per_boot_results));
    rungs;
    max_rps;
    attempted = List.fold_left (fun acc a -> acc + Array.length a) 0 all;
    failed = List.fold_left (fun acc a -> acc + failed_in a) protocol_errors all;
    verify_ms = List.map (fun key -> (fst key, snd (List.assoc key refs))) mix;
  }
