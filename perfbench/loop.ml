(* The closed loop: one process, one 2-worker default-policy pool.  Every
   pass runs each benchmark once as [seq] and once as [unsafe] at P=2, the
   checked and sync sets once in their mode, and (traced runs only) the
   serial elision on a 1-worker pool, all in one seeded order.  Every
   operation is verified and its output digest compared with the
   benchmark's reference digest.

   A traced run records spans on even passes (and set-up repetitions) only,
   so that tracing overhead is the difference between interleaved passes
   that do the same work. *)

module Pool = Rpb_pool.Pool
open Rpb_benchmarks

let now = Rpb_prim.Timing.now

type rung = Seq | Elision | Par | Checked | Sync

let rung_name = function
  | Seq -> "seq"
  | Elision -> "elision"
  | Par -> "par"
  | Checked -> "checked"
  | Sync -> "sync"

let kind_of = function
  | Seq -> Suite.Seq
  | Elision | Par -> Suite.Par Mode.Unsafe
  | Checked -> Suite.Par Mode.Checked
  | Sync -> Suite.Par Mode.Synchronized

(* Spans are on for pass (or repetition) [i] of a traced run. *)
let spans_on ~traced i = traced && i mod 2 = 0

type setup = {
  pool : Pool.t;
  insts : Suite.inst list;
  setup_s : float;  (** median over the repetitions *)
  times : float array;  (** per repetition, s *)
  prepare_ms : (string * float) list;  (** per family, median *)
}

(* Pool creation plus every [prepare], [reps] times over, each from a
   collected heap; only the last pool and instances are kept.  Reported as
   medians. *)
let setup ~reps ~traced ~scale_of benches =
  let times = ref [] and fams = ref [] and last = ref None in
  for i = 0 to reps - 1 do
    Option.iter (fun (pool, _) -> Pool.shutdown pool) !last;
    last := None;
    Gc.full_major ();
    if spans_on ~traced i then Spans.resume () else Spans.stop ();
    let t0 = now () in
    let pool = Pool.create ~num_workers:2 () in
    let per_fam = Hashtbl.create 8 in
    let insts =
      List.map
        (fun (b : Suite.bench) ->
          let t = now () in
          let inst = Suite.prepare pool ~scale:(scale_of b) b in
          Hashtbl.replace per_fam b.family
            (((now () -. t) *. 1e3)
            +. Option.value (Hashtbl.find_opt per_fam b.family) ~default:0.);
          inst)
        benches
    in
    times := (now () -. t0) :: !times;
    Spans.stop ();
    fams := per_fam :: !fams;
    last := Some (pool, insts)
  done;
  let pool, insts = Option.get !last in
  let med xs = Stat.median (Array.of_list xs) in
  {
    pool;
    insts;
    setup_s = med !times;
    times = Array.of_list (List.rev !times);
    prepare_ms =
      List.map
        (fun fam ->
          (fam, med (List.map (fun h -> Option.value (Hashtbl.find_opt h fam) ~default:0.) !fams)))
        Suite.families;
  }

(* Per-job scheduler and GC deltas of a traced P=2 unsafe run. *)
type job = {
  family : string;
  tasks : int;
  idle : int;
  steals_ok : int;
  steals_failed : int;
  minor_words : float;
  major_collections : int;
}

type result = {
  samples : (rung * string, (int * float) list) Hashtbl.t;
      (** (pass, ms) per op *)
  mutable jobs : job list;
  mutable attempted : int;
  mutable failed : int;
  mutable passes : int;
}

let create_result () =
  {
    samples = Hashtbl.create 64;
    jobs = [];
    attempted = 0;
    failed = 0;
    passes = 0;
  }

(* A benchmark whose every timed run failed its check has no sample. *)
exception No_samples of string

(* A benchmark's time on a rung: the lower quartile of its samples over the
   passes [only] keeps (all by default).  On a shared 2-vCPU host whole
   seconds run 1.1-1.7x slower than others, for every benchmark at once,
   and the share of such passes differs from run to run; the median follows
   that share, while the lower quartile stays with the unhindered passes.
   Over five runs of about 40 passes, the range of [seq_ms] was 28% of its
   value with the median and 9% with the lower quartile. *)
let time_ms ?(only = fun _ -> true) r rung name =
  let l = Option.value (Hashtbl.find_opt r.samples (rung, name)) ~default:[] in
  match List.filter_map (fun (i, ms) -> if only i then Some ms else None) l with
  | [] -> raise (No_samples (Printf.sprintf "no %s sample for %s" (rung_name rung) name))
  | l -> Stat.lower_quartile (Array.of_list l)

(* One timed operation, checked against the reference digest; a failed
   verify or a different digest is a failed operation. *)
let op r ~refs ~traced ~pass (rung, (inst : Suite.inst)) =
  let name = inst.bench.name in
  let kind = kind_of rung in
  let before =
    if traced && rung = Par then Some (Pool.Stats.capture inst.pool, Gc.quick_stat ())
    else None
  in
  let ms = Suite.time_op inst kind in
  (match before with
  | Some (s0, g0) ->
    let s = Pool.Stats.diff ~before:s0 ~after:(Pool.Stats.capture inst.pool) in
    let g1 = Gc.quick_stat () in
    r.jobs <-
      {
        family = inst.bench.family;
        tasks = Pool.Stats.tasks_executed s;
        idle = Pool.Stats.idle_episodes s;
        steals_ok = Pool.Stats.steals_ok s;
        steals_failed = Pool.Stats.steals_failed s;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: r.jobs
  | None -> ());
  r.attempted <- r.attempted + 1;
  if Suite.check inst kind = Some (Hashtbl.find refs name) then
    Hashtbl.replace r.samples (rung, name)
      ((pass, ms) :: Option.value (Hashtbl.find_opt r.samples (rung, name)) ~default:[])
  else begin
    r.failed <- r.failed + 1;
    Printf.eprintf "perfbench: %s %s: verify failed or digest differs\n%!" name
      (rung_name rung)
  end

(* Reference digests from one [seq] run of every instance. *)
let references insts =
  let refs = Hashtbl.create 16 in
  List.iter
    (fun (inst : Suite.inst) ->
      Suite.time_op inst Suite.Seq |> ignore;
      match Suite.check inst Suite.Seq with
      | Some d -> Hashtbl.replace refs inst.bench.name d
      | None -> failwith ("perfbench: no reference digest for " ^ inst.bench.name))
    insts;
  refs

(* Warm-up: every operation once, untimed but checked; then whole passes
   in seeded order until [seconds] have gone: at least one, and at least
   four when traced, so that spans-on and both halves of the spans-off
   passes have samples. *)
let run ~rng ~refs ~traced ~seconds ops =
  let warm = create_result () in
  List.iter (op warm ~refs ~traced:false ~pass:(-1)) ops;
  let r = { (create_result ()) with attempted = warm.attempted; failed = warm.failed } in
  let ops = Array.of_list ops in
  let deadline = now () +. seconds in
  let min_passes = if traced then 4 else 1 in
  while r.passes < min_passes || now () < deadline do
    if spans_on ~traced r.passes then Spans.resume ();
    Array.iter (op r ~refs ~traced ~pass:r.passes) (Suite.shuffle rng ops);
    Spans.stop ();
    r.passes <- r.passes + 1
  done;
  r
