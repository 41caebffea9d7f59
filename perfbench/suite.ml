(* The benchmark's view of the registry: which benchmarks run, at which
   scale, in which family, and how one timed operation is run and checked.

   Each benchmark has its own scale: the largest at which its input stays
   within about 8 MB, the two cores' L2 on the 2-core x86 host it was tuned
   on, where one unsafe run at P=2 takes 1-30 ms.  Past the L2 the L3 is
   shared with the host's other tenants, and run-to-run spread doubled.  At
   one common scale the suite spans three orders of magnitude (hist 1.5 ms,
   dr 2 s at scale 5).
   Registry [prepare] takes no seed, so inputs are fixed by the scale; the
   benchmark's seed drives job order and the serve arrival schedule only. *)

open Rpb_benchmarks
module Pool = Rpb_pool.Pool

type bench = {
  name : string;
  family : string;  (** seqops | text | graph | mq | geom *)
  layer : string;  (** the library the parallel code lives in *)
  scale : int;
  entry : Common.entry;
}

let families = [ "seqops"; "text"; "graph"; "mq"; "geom" ]

let table =
  [
    ("sort", "seqops", "parseq", 3);
    ("isort", "seqops", "parseq", 4);
    ("hist", "seqops", "parseq", 4);
    ("dedup", "seqops", "chash", 2);
    ("bw", "text", "text", 2);
    ("lrs", "text", "text", 1);
    ("sa", "text", "text", 1);
    ("mis", "graph", "graph", 2);
    ("mm", "graph", "graph", 3);
    ("sf", "graph", "graph", 2);
    ("msf", "graph", "graph", 3);
    ("bfs", "mq", "mq", 2);
    ("sssp", "mq", "mq", 3);
    ("dr", "geom", "geom", 0);
  ]

let all =
  List.map
    (fun (name, family, layer, scale) ->
      match Registry.find name with
      | Some entry -> { name; family; layer; scale; entry }
      | None -> failwith ("perfbench: no registry benchmark " ^ name))
    table

let find name = List.find (fun b -> b.name = name) all

(* Benchmarks whose registry mode_note makes the switch differ from unsafe.
   lrs and sa are left out of the sync set: their sync mode falls back to
   checked. *)
let checked_set = List.map find [ "bw"; "lrs"; "sa"; "sort"; "isort"; "mis" ]
let sync_set = List.map find [ "bw"; "sort"; "isort"; "mis"; "hist"; "dedup" ]

type kind = Seq | Par of Mode.t

let kind_name = function Seq -> "seq" | Par m -> Mode.name m

(* A prepared instance.  Its closures keep the pool it was prepared on, so
   the serial elision (a 1-worker pool) needs an instance of its own. *)
type inst = { bench : bench; pool : Pool.t; prepared : Common.prepared }

let now = Rpb_prim.Timing.now

let prepare pool ~scale bench =
  let input = List.hd bench.entry.Common.inputs in
  Spans.with_span "benchmarks" ("prepare:" ^ bench.name) (fun () ->
      let prepared =
        Pool.run pool (fun () -> bench.entry.Common.prepare pool ~input ~scale)
      in
      { bench; pool; prepared })

(* One timed run, in ms.  [Seq] runs outside any [Pool.run], so it bypasses
   the pool entirely. *)
let time_op inst kind =
  let p = inst.prepared in
  match kind with
  | Seq ->
    Spans.with_span "benchmarks" ("run_seq:" ^ inst.bench.name) (fun () ->
        let t0 = now () in
        p.run_seq ();
        (now () -. t0) *. 1e3)
  | Par mode ->
    Spans.with_span "pool" "Pool.run" (fun () ->
        let t0 = now () in
        Pool.run inst.pool (fun () ->
            Spans.with_span inst.bench.layer
              ("run_par:" ^ inst.bench.name ^ ":" ^ Mode.name mode)
              (fun () -> p.run_par mode));
        (now () -. t0) *. 1e3)

(* [Protocol.digest_hash] of the canonical snapshot of the last run, or
   [None] when [verify] rejects a parallel run's output. *)
let check inst kind =
  Spans.with_span "benchmarks" ("verify:" ^ inst.bench.name) (fun () ->
      Pool.run inst.pool (fun () ->
          let ok =
            match kind with Seq -> true | Par _ -> inst.prepared.verify ()
          in
          if ok then
            Some (Rpb_serve.Protocol.digest_hash (inst.prepared.snapshot ()))
          else None))

(* Fisher-Yates with the benchmark's seeded stream. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rpb_prim.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
