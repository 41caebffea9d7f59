(* Micro-probes of single layers, each the median of a few repetitions of a
   fixed batch, reported in ns per operation.  Traced runs only.  A probe is
   a set-up function returning the timed thunk, so allocating the structure
   under test stays out of the time. *)

module Pool = Rpb_pool.Pool
module Rng = Rpb_prim.Rng

let now = Rpb_prim.Timing.now

let ns_per ~layer ~name ~ops probe =
  Stat.median
    (Array.init 5 (fun _ ->
         let f = probe () in
         Spans.with_span layer name (fun () ->
             let t0 = now () in
             f ();
             (now () -. t0) *. 1e9 /. float_of_int ops)))

(* Two halves of [n] operations, one on each worker where a thief takes
   the second. *)
let on_two pool n f =
  Pool.run pool (fun () ->
      ignore (Pool.join pool (fun () -> f 0 (n / 2)) (fun () -> f (n / 2) n)))

let run pool ~rng =
  let joins = 20_000 and tasks = 100_000 and n = 200_000 and m = 100_000 in
  let perm = Rng.permutation rng n in
  let mono = Array.init (n + 1) (fun i -> i) in
  let keys = Array.init m (fun _ -> Rng.int rng max_int) in
  [
    ( "pool.join_ns",
      ns_per ~layer:"pool" ~name:"join" ~ops:joins (fun () () ->
          Pool.run pool (fun () ->
              for _ = 1 to joins do
                ignore (Pool.join pool (fun () -> ()) (fun () -> ()))
              done)) );
    ( "pool.task_ns",
      ns_per ~layer:"pool" ~name:"parallel_for" ~ops:tasks (fun () () ->
          Pool.run pool (fun () ->
              Pool.parallel_for ~grain:1 ~start:0 ~finish:tasks
                ~body:(fun _ -> ())
                pool)) );
    ( "core.validate_ns",
      ns_per ~layer:"core" ~name:"validate_offsets" ~ops:n (fun () () ->
          Pool.run pool (fun () -> Rpb_core.Scatter.validate_offsets pool ~n perm))
    );
    ( "core.monotone_ns",
      ns_per ~layer:"core" ~name:"validate_monotonic" ~ops:n (fun () () ->
          Pool.run pool (fun () -> Rpb_core.Chunks_ind.validate_monotonic pool ~n mono))
    );
    ( "mq.pushpop_ns",
      ns_per ~layer:"mq" ~name:"push_pop" ~ops:m (fun () ->
          let q = Rpb_mq.Multiqueue.create ~seed:1 ~queues:4 () in
          fun () ->
          on_two pool m (fun lo hi ->
              for i = lo to hi - 1 do
                Rpb_mq.Multiqueue.push q ~pri:keys.(i) i
              done;
              for _ = lo to hi - 1 do
                ignore (Rpb_mq.Multiqueue.pop q)
              done)) );
    ( "chash.insert_ns",
      ns_per ~layer:"chash" ~name:"insert" ~ops:m (fun () ->
          let h = Rpb_chash.Chash.create ~capacity:m in
          fun () ->
          on_two pool m (fun lo hi ->
              for i = lo to hi - 1 do
                ignore (Rpb_chash.Chash.insert h keys.(i))
              done)) );
  ]
