type task = unit -> unit

type 'a state = Pending | Done of 'a | Raised of exn
type 'a promise = 'a state Atomic.t

exception Shutdown
exception Cancelled
exception Stalled of string

(* ------------------------------------------------------------------ *)
(* Structured cancellation.

   Every [run] owns one scope.  Tasks spawned during the run carry a
   reference to it; the first exception escaping a *structured* task (a
   [join] branch, and with it every [parallel_for]/[parallel_for_reduce]
   subtree) records itself in [first_exn] and flips [cancel_flag], after
   which splitters stop descending, not-yet-started tasks of the scope are
   skipped, and [run] re-raises the recorded exception — but only once
   [outstanding] has drained to zero, so no task of a failed run is still
   touching caller state when [run] returns.  The happy-path cost is one
   atomic load per scheduling decision (split / join / task start), the same
   budget as an instrumentation switch. *)

type scope = {
  cancel_flag : bool Atomic.t;
  first_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
  outstanding : int Atomic.t;  (** tasks of this scope created but not yet resolved *)
  deadline_s : float option;  (** the [run ?deadline], bounding drains *)
}

let new_scope ?deadline () =
  {
    cancel_flag = Atomic.make false;
    first_exn = Atomic.make None;
    outstanding = Atomic.make 0;
    deadline_s = deadline;
  }

(* Per-domain nesting depth of parallel constructs ([join] /
   [parallel_for(_reduce)] frames and task bodies).  Depth 0 means "the run
   body": when an exception finishes unwinding back to depth 0 the failure
   has been delivered to user code, so the scope's stragglers are drained
   and a fresh scope installed — catching the exception there leaves the
   run healthy and reusable. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* [first_exn] is CAS-published before [cancel_flag] is set, so any observer
   of a raised flag is guaranteed to find the exception. *)
let scope_cancel scope e bt =
  ignore (Atomic.compare_and_set scope.first_exn None (Some (e, bt)));
  Atomic.set scope.cancel_flag true

let scope_raise scope =
  match Atomic.get scope.first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> raise Cancelled

(* ------------------------------------------------------------------ *)
(* Per-worker counters.

   Each worker owns one [int array] slab, allocated separately and padded to
   a cache line, so the hot-path increments never contend: a worker writes
   only its own slab and the aggregator ([Stats.capture]) performs racy plain
   reads, which is fine for monotonic diagnostics counters. *)

let c_tasks = 0
let c_steals_ok = 1
let c_steals_failed = 2
let c_idle = 3
let c_max_depth = 4

(* Per-worker victim hint for the round-robin / sticky selection policies.
   Living in the counter slab keeps it in the worker's own cache line — no
   new allocation, no false sharing. *)
let c_last_victim = 5

(* 8 words = 64 bytes of payload per slab: one full cache line, so two
   workers' counters never share one.  Slots 6-7 are padding. *)
let counter_slots = 8

(* ------------------------------------------------------------------ *)
(* Scheduling policy.

   Every tunable scheduling decision is a field of one plain record threaded
   through [create], so a policy costs exactly one record field load at each
   decision point and the default compiles to the pre-refactor scheduler:
   steal-one, help-first fork order, uniform-random victims, and the
   historical spin/backoff constants (64 spins, 50 µs helper sleep, 1 µs
   doubling to 1 ms off-pool backoff) that used to be hardwired in
   [worker_loop] / [await] / [drain_scope].

   The decision points are:
   - {e steal amount} — [try_find_task]: steal one task per successful sweep,
     or a [Ws_deque.steal_half] batch (thief runs the first task and pushes
     the rest onto its own deque);
   - {e fork order} — [join]: help-first pushes the second branch and runs
     the first inline (today's behavior), work-first pushes the {e first}
     branch (the continuation) and runs the second inline;
   - {e victim selection} — [try_find_task]: where the steal sweep starts
     (uniform random, round-robin from the last successful victim, or sticky
     on the last successful victim);
   - {e idle backoff shape} — [worker_loop] / [await] / [drain_scope]: spin
     budget, helper idle sleep, and the off-pool exponential backoff
     bounds;
   - {e splitter} — [parallel_for] / [parallel_for_reduce]: eager fixed-grain
     recursion down to the leaves, or lazy binary splitting that consults the
     local deque depth and only publishes work when thieves have drained it
     (plus the grain defaults themselves, [grain_factor] / [fixed_grain], so
     a policy governs every splitter decision point). *)

module Policy = struct
  type steal_amount = Steal_one | Steal_half
  type fork_order = Help_first | Work_first
  type victim_selection = Random_victim | Round_robin | Sticky

  (* The {e splitter} decision point — how [parallel_for] /
     [parallel_for_reduce] turn an index range into tasks.  [Eager_grain]
     splits the range down to [grain]-sized leaves unconditionally (the
     pre-policy behavior): the task count is fixed up front, whether or not
     anyone is idle.  [Lazy_binary] auto-coarsens by demand: while the
     executing worker's own deque holds more than [lazy_depth] unstolen
     tasks (no thief needs work), it runs [grain]-sized chunks inline with
     zero deque traffic; the moment the deque drains to [lazy_depth] or
     below, it splits off the top half of the remaining range as one task
     and keeps going on the bottom half. *)
  type splitter = Eager_grain | Lazy_binary of { lazy_depth : int }

  type t = {
    name : string;
    steal_amount : steal_amount;
    fork_order : fork_order;
    victim_selection : victim_selection;
    splitter : splitter;
    grain_factor : int;
    fixed_grain : int option;
    spin_budget : int;
    idle_sleep_s : float;
    backoff_min_s : float;
    backoff_max_s : float;
  }

  let default =
    {
      name = "default";
      steal_amount = Steal_one;
      fork_order = Help_first;
      victim_selection = Random_victim;
      splitter = Eager_grain;
      grain_factor = 8;
      fixed_grain = None;
      spin_budget = 64;
      idle_sleep_s = 5e-5;
      backoff_min_s = 1e-6;
      backoff_max_s = 1e-3;
    }

  let steal_half = { default with name = "steal_half"; steal_amount = Steal_half }
  let work_first = { default with name = "work_first"; fork_order = Work_first }
  let sticky = { default with name = "sticky"; victim_selection = Sticky }
  let round_robin = { default with name = "round_robin"; victim_selection = Round_robin }

  let steal_half_sticky =
    {
      default with
      name = "steal_half_sticky";
      steal_amount = Steal_half;
      victim_selection = Sticky;
    }

  let work_first_steal_half =
    {
      default with
      name = "work_first_steal_half";
      fork_order = Work_first;
      steal_amount = Steal_half;
    }

  (* Lazy splitting is only interesting when there is potential parallelism
     left to refuse, so the lazy policies also raise [grain_factor]: leaves
     get 16x finer than the default's ~8-per-worker target, and the
     depth-triggered coarsening is what keeps that from costing 16x the
     deque traffic.  ("lazy" is the registry name; the OCaml identifier
     differs because [lazy] is a keyword.) *)
  let lazy_split =
    {
      default with
      name = "lazy";
      splitter = Lazy_binary { lazy_depth = 2 };
      grain_factor = 128;
    }

  let lazy_sticky =
    { lazy_split with name = "lazy_sticky"; victim_selection = Sticky }

  let lazy_steal_half =
    { lazy_split with name = "lazy_steal_half"; steal_amount = Steal_half }

  (* Granularity-sweep levers: force every defaulted grain to 1 so the two
     splitters can be compared at the finest decomposition the API allows
     (call sites that pass an explicit [?grain] keep it). *)
  let eager_grain1 =
    { default with name = "eager_grain1"; fixed_grain = Some 1 }

  let lazy_grain1 =
    { lazy_split with name = "lazy_grain1"; fixed_grain = Some 1 }

  let all =
    [
      default;
      steal_half;
      work_first;
      sticky;
      round_robin;
      steal_half_sticky;
      work_first_steal_half;
      lazy_split;
      lazy_sticky;
      lazy_steal_half;
      eager_grain1;
      lazy_grain1;
    ]

  let names () = List.map (fun p -> p.name) all
  let find name = List.find_opt (fun p -> p.name = name) all
end

(* How the pool turns a parallel region into an execution order.  [Ws] is the
   production work-stealing scheduler.  [Seq_det] is the deterministic
   sequential executor behind [create_deterministic]: one domain, and — when
   [shuffle] is on — a seeded permutation of the leaf order, so it explores
   alternative (but valid) fork-join schedules reproducibly.  It is the
   reference semantics the differential oracle in [lib/check] diffs against. *)
type sched = Ws | Seq_det of { rng : Rpb_prim.Rng.t; shuffle : bool }

type t = {
  id : int;
  (* Actual worker count.  May end up below [requested_workers] when
     [Domain.spawn] keeps failing and [create] degrades gracefully; written
     once during [make_pool], racy plain reads afterwards are benign. *)
  mutable num_workers : int;
  requested_workers : int;
  sched : sched;
  policy : Policy.t;
  (* Per-domain minor-heap size in words ([create ?minor_heap_kb]); applied
     by each worker domain at startup and by worker 0 for the duration of
     [run].  [None] leaves the runtime default untouched. *)
  minor_heap_words : int option;
  deques : task Ws_deque.t array;
  mutable domains : unit Domain.t array;
  injector : task Queue.t;
  inj_mutex : Mutex.t;
  idle_mutex : Mutex.t;
  idle_cond : Condition.t;
  wake_version : int Atomic.t;
  sleepers : int Atomic.t;
  shutdown_flag : bool Atomic.t;
  running : bool Atomic.t;
  scope : scope Atomic.t;  (* the active run's cancellation scope *)
  counters : int array array;
}

let next_pool_id = Atomic.make 0

(* Which (pool id, worker index) the current domain is executing for. *)
let slot_key : (int * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_index pool =
  match !(Domain.DLS.get slot_key) with
  | Some (pid, idx) when pid = pool.id -> Some idx
  | _ -> None

let size pool = pool.num_workers
let policy pool = pool.policy
let policy_name pool = pool.policy.Policy.name

(* Alias for annotating functions defined after [Stats], whose record fields
   would otherwise shadow [t]'s during inference. *)
type pool = t

(* ------------------------------------------------------------------ *)
(* Structured scheduler telemetry (replaces the old global atomics).    *)

module Stats = struct
  type worker = {
    worker_id : int;
    tasks_executed : int;
    steals_ok : int;
    steals_failed : int;
    idle_episodes : int;
    max_deque_depth : int;
  }

  type t = {
    num_workers : int;
    requested_workers : int;
    policy : string;
    per_worker : worker array;
  }

  let total f t = Array.fold_left (fun acc w -> acc + f w) 0 t.per_worker
  let tasks_executed t = total (fun w -> w.tasks_executed) t
  let steals_ok t = total (fun w -> w.steals_ok) t
  let steals_failed t = total (fun w -> w.steals_failed) t
  let idle_episodes t = total (fun w -> w.idle_episodes) t

  let max_deque_depth t =
    Array.fold_left (fun acc w -> max acc w.max_deque_depth) 0 t.per_worker

  (* Counters are monotonic, so a window of activity is [after - before];
     [max_deque_depth] is a high-water mark and keeps the [after] value. *)
  let diff ~before ~after =
    let sub wa wb =
      {
        worker_id = wa.worker_id;
        tasks_executed = wa.tasks_executed - wb.tasks_executed;
        steals_ok = wa.steals_ok - wb.steals_ok;
        steals_failed = wa.steals_failed - wb.steals_failed;
        idle_episodes = wa.idle_episodes - wb.idle_episodes;
        max_deque_depth = wa.max_deque_depth;
      }
    in
    {
      num_workers = after.num_workers;
      requested_workers = after.requested_workers;
      policy = after.policy;
      per_worker =
        Array.mapi
          (fun i wa ->
            if i < Array.length before.per_worker then
              sub wa before.per_worker.(i)
            else wa)
          after.per_worker;
    }

  let summary t =
    Printf.sprintf "workers=%d%s tasks=%d steals=%d failed-steals=%d idle=%d"
      t.num_workers
      (if t.num_workers < t.requested_workers then
         Printf.sprintf " (of %d requested)" t.requested_workers
       else "")
      (tasks_executed t) (steals_ok t) (steals_failed t) (idle_episodes t)

  let to_string t =
    let b = Buffer.create 256 in
    Buffer.add_string b (summary t);
    Array.iter
      (fun w ->
        Buffer.add_string b
          (Printf.sprintf
             "\n  worker %2d: tasks=%-8d steals=%-6d failed=%-6d idle=%-5d \
              max-depth=%d"
             w.worker_id w.tasks_executed w.steals_ok w.steals_failed
             w.idle_episodes w.max_deque_depth))
      t.per_worker;
    Buffer.contents b

  let capture (pool : pool) =
    {
      num_workers = pool.num_workers;
      requested_workers = pool.requested_workers;
      policy = pool.policy.Policy.name;
      (* Counter slabs are allocated for the requested count; only the
         workers that actually exist are reported. *)
      per_worker =
        Array.init pool.num_workers (fun i ->
            let c = pool.counters.(i) in
            {
              worker_id = i;
              tasks_executed = c.(c_tasks);
              steals_ok = c.(c_steals_ok);
              steals_failed = c.(c_steals_failed);
              idle_episodes = c.(c_idle);
              max_deque_depth = c.(c_max_depth);
            });
    }

  let reset (pool : pool) =
    Array.iter (fun c -> Array.fill c 0 counter_slots 0) pool.counters
end

(* ------------------------------------------------------------------ *)
(* Instrumentation switch word.

   One process-global atomic int holds a bit per optional instrumentation
   layer — bit 1: the flight recorder ([Recorder], and through it the
   [Trace] spans), bit 2: scheduler fault injection ([Fault]).  "All pool
   instrumentation off" is [instr_flags = 0]; every instrumented site pays
   one atomic load of this word while its bit is clear. *)

let instr_flags = Atomic.make 0
let recording_bit = 1
let fault_bit = 2

let rec set_instr_bit bit on =
  let cur = Atomic.get instr_flags in
  let next = if on then cur lor bit else cur land lnot bit in
  if not (Atomic.compare_and_set instr_flags cur next) then set_instr_bit bit on

(* ------------------------------------------------------------------ *)
(* Scheduler flight recorder.

   Off by default; every instrumented site is gated on one atomic load (the
   [instr_flags] word above), so the scheduling hot paths keep their
   uninstrumented cost.  When armed, each domain appends task-lifecycle
   events into its own lock-free ring buffer — single writer, drop-oldest on
   overflow, with the drop count recoverable from the monotonically growing
   total — and [stop] collects the rings into one timestamp-sorted event
   list for the post-run analyzer in [lib/obs].

   The events carry enough series-parallel provenance to reconstruct the
   fork-join DAG offline: every [join] (and through it every [parallel_for]
   split) allocates a fresh construct id and records which (construct,
   branch) strand forked it, and every strand's computation is covered by
   [Work] segments — opened/closed around fork points, task execution, and
   joins, so time spent waiting or helping in [await] is never charged as
   work.  Timestamps come from the monotonic clock in [Rpb_prim.Timing]. *)

module Recorder = struct
  type event =
    | Fork of {
        id : int;  (** fresh construct id of this [join] *)
        parent : int;  (** construct id of the forking strand *)
        parent_branch : int;  (** branch of [parent] the forking strand is on *)
        w : int;
        ts_ns : int;
      }
    | Join of { id : int; w : int; ts_ns : int }
    | Work of {
        construct : int;
        branch : int;  (** 0 = inline branch, 1 = spawned branch *)
        w : int;
        begin_ns : int;
        end_ns : int;
      }
    | Exec of { construct : int; w : int; begin_ns : int }
    | Steal of { thief : int; victim : int; ts_ns : int }
    | Idle of { w : int; begin_ns : int; end_ns : int }
    | Phase of { name : string; w : int; begin_ns : int; end_ns : int }
    | Gc_sample of {
        w : int;
        ts_ns : int;
        minor_collections : int;
        major_collections : int;
        promoted_words : float;
        minor_words : float;
      }

  let ts_of = function
    | Fork { ts_ns; _ } | Join { ts_ns; _ } | Steal { ts_ns; _ }
    | Gc_sample { ts_ns; _ } ->
      ts_ns
    | Work { begin_ns; _ } | Exec { begin_ns; _ } | Idle { begin_ns; _ }
    | Phase { begin_ns; _ } ->
      begin_ns

  type recording = { events : event list; dropped : int; policy : string }

  (* Which scheduling policy the recorded session ran under; set by [start],
     stamped into the [recording] by [stop] so [Sp_dag] reports attribute
     their work/span/burden numbers to a policy. *)
  let session_policy = Atomic.make "default"

  let enabled () = Atomic.get instr_flags land recording_bit <> 0
  let now_ns = Rpb_prim.Timing.monotonic_ns

  (* Per-domain ring buffer: single writer (the owning domain), read only
     after [stop] has disarmed the switch.  [total] grows without bound; the
     ring keeps the newest [capacity] events (drop-oldest). *)
  type ring = { buf : event array; mutable total : int }

  let dummy_event = Join { id = -1; w = -1; ts_ns = 0 }
  let default_capacity = 1 lsl 15
  let capacity = Atomic.make default_capacity
  let registry_mutex = Mutex.create ()
  let rings : ring list ref = ref []

  (* Bumped on every [start]/[stop] so stale DLS rings and strand contexts
     from a previous session are abandoned rather than mixed in. *)
  let generation = Atomic.make 0

  let ring_key : (int * ring) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let my_ring () =
    let slot = Domain.DLS.get ring_key in
    let gen = Atomic.get generation in
    match !slot with
    | Some (g, r) when g = gen -> r
    | _ ->
      let r = { buf = Array.make (Atomic.get capacity) dummy_event; total = 0 } in
      Mutex.lock registry_mutex;
      rings := r :: !rings;
      Mutex.unlock registry_mutex;
      slot := Some (gen, r);
      r

  let emit e =
    let r = my_ring () in
    let cap = Array.length r.buf in
    r.buf.(r.total land (cap - 1)) <- e;
    r.total <- r.total + 1

  (* Per-domain strand context: which (construct, branch) the domain is
     computing for, and since when.  [seg_ns = 0] means no open segment
     (the domain is scheduling, waiting, or helping). *)
  type ctx = {
    mutable construct : int;
    mutable branch : int;
    mutable seg_ns : int;
    mutable since_gc : int;
  }

  let ctx_key : (int * ctx) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let my_ctx () =
    let slot = Domain.DLS.get ctx_key in
    let gen = Atomic.get generation in
    match !slot with
    | Some (g, c) when g = gen -> c
    | _ ->
      let c = { construct = 0; branch = 0; seg_ns = 0; since_gc = 0 } in
      slot := Some (gen, c);
      c

  let next_construct = Atomic.make 1

  let gc_sample ~w =
    let s = Gc.quick_stat () in
    emit
      (Gc_sample
         {
           w;
           ts_ns = now_ns ();
           minor_collections = s.Gc.minor_collections;
           major_collections = s.Gc.major_collections;
           promoted_words = s.Gc.promoted_words;
           minor_words = s.Gc.minor_words;
         })

  let seg_close ~w c =
    if c.seg_ns <> 0 then begin
      emit
        (Work
           {
             construct = c.construct;
             branch = c.branch;
             w;
             begin_ns = c.seg_ns;
             end_ns = now_ns ();
           });
      c.seg_ns <- 0
    end

  let seg_open c ~construct ~branch =
    c.construct <- construct;
    c.branch <- branch;
    c.seg_ns <- now_ns ()

  (* Instrumentation points, called by the pool internals below only when
     [enabled ()].  [fork] closes the forking strand's segment, emits the
     provenance event, and returns what [join_done] needs to restore the
     strand afterwards. *)

  let fork ~w =
    let c = my_ctx () in
    seg_close ~w c;
    let id = Atomic.fetch_and_add next_construct 1 in
    emit
      (Fork
         { id; parent = c.construct; parent_branch = c.branch; w; ts_ns = now_ns () });
    (id, c.construct, c.branch)

  let branch_open ~w:_ (id, _, _) = seg_open (my_ctx ()) ~construct:id ~branch:0

  let seg_close_cur ~w = seg_close ~w (my_ctx ())

  let join_done ~w (id, pc, pb) =
    let c = my_ctx () in
    seg_close ~w c;
    emit (Join { id; w; ts_ns = now_ns () });
    seg_open c ~construct:pc ~branch:pb

  (* GC sampled every [gc_every] task starts per domain — often enough to
     attribute collector pressure per worker, rare enough that the sampling
     (Gc.quick_stat allocates its stat record) does not perturb what it
     measures. *)
  let gc_every = 64

  (* Wrapper around a spawned [join] branch: saves whatever strand the
     executing domain was on (a worker helping under [await] has none), tags
     the task's computation with its (construct, 1) provenance, and records
     the queue delay via [Exec] (matched with [Fork] by construct id). *)
  let run_branch pool construct g () =
    if not (enabled ()) then g ()
    else begin
      let w = match my_index pool with Some i -> i | None -> -1 in
      let c = my_ctx () in
      let s_construct = c.construct and s_branch = c.branch in
      let interrupted = c.seg_ns <> 0 in
      if interrupted then seg_close ~w c;
      emit (Exec { construct; w; begin_ns = now_ns () });
      c.since_gc <- c.since_gc + 1;
      if c.since_gc >= gc_every then begin
        c.since_gc <- 0;
        gc_sample ~w
      end;
      seg_open c ~construct ~branch:1;
      let restore () =
        seg_close ~w c;
        c.construct <- s_construct;
        c.branch <- s_branch;
        if interrupted then c.seg_ns <- now_ns ()
      in
      match g () with
      | x ->
        restore ();
        x
      | exception e ->
        restore ();
        raise e
    end

  let idle_event ~w ~begin_ns = emit (Idle { w; begin_ns; end_ns = now_ns () })
  let steal_event ~thief ~victim = emit (Steal { thief; victim; ts_ns = now_ns () })

  let phase_event ~name ~w ~begin_ns =
    emit (Phase { name; w; begin_ns; end_ns = now_ns () })

  let with_root f =
    if not (enabled ()) then f ()
    else begin
      let c = my_ctx () in
      gc_sample ~w:0;
      seg_open c ~construct:0 ~branch:0;
      match f () with
      | x ->
        seg_close ~w:0 c;
        gc_sample ~w:0;
        x
      | exception e ->
        seg_close ~w:0 c;
        gc_sample ~w:0;
        raise e
    end

  let rec round_up_pow2 n k = if k >= n then k else round_up_pow2 n (k * 2)

  let start ?(ring_capacity = default_capacity) ?(policy_name = "default") () =
    Atomic.set session_policy policy_name;
    Atomic.set capacity (round_up_pow2 (max 16 ring_capacity) 16);
    Mutex.lock registry_mutex;
    rings := [];
    Mutex.unlock registry_mutex;
    Atomic.incr generation;
    Atomic.set next_construct 1;
    set_instr_bit recording_bit true

  let stop () =
    set_instr_bit recording_bit false;
    Mutex.lock registry_mutex;
    let rs = !rings in
    rings := [];
    Mutex.unlock registry_mutex;
    Atomic.incr generation;
    let dropped =
      List.fold_left
        (fun acc r -> acc + max 0 (r.total - Array.length r.buf))
        0 rs
    in
    let events =
      List.concat_map
        (fun r ->
          let cap = Array.length r.buf in
          let n = min r.total cap in
          let first = r.total - n in
          List.init n (fun i -> r.buf.((first + i) land (cap - 1))))
        rs
    in
    let events = List.sort (fun a b -> compare (ts_of a) (ts_of b)) events in
    { events; dropped; policy = Atomic.get session_policy }
end

(* ------------------------------------------------------------------ *)
(* Chrome-trace export.

   Not a recording layer of its own: [start] arms a [Recorder] session and
   [stop_to_file] renders that session's duration events — [Phase] spans
   under their own names, [Work] segments as "work", [Idle] episodes as
   "idle" — in the Chrome trace-event JSON format ([chrome://tracing] /
   Perfetto).  The wall-clock epoch is applied here and only here. *)

module Trace = struct
  (* A [Phase] flight-recorder event around [f] while recording is armed.
     Tests the recording bit alone, so an armed fault sweep does not take
     the slow path: one atomic load when recording is off. *)
  let span pool name f =
    if not (Recorder.enabled ()) then f ()
    else begin
      let begin_ns = Recorder.now_ns () in
      let finish () =
        let w = match my_index pool with Some i -> i | None -> -1 in
        Recorder.phase_event ~name ~w ~begin_ns
      in
      match f () with
      | x ->
        finish ();
        x
      | exception e ->
        finish ();
        raise e
    end

  let start () = Recorder.start ()

  let escape name =
    let b = Buffer.create (String.length name + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      name;
    Buffer.contents b

  let to_file path (r : Recorder.recording) =
    let spans =
      List.filter_map
        (function
          | Recorder.Phase { name; w; begin_ns; end_ns } ->
            Some (name, w, begin_ns, end_ns)
          | Recorder.Work { w; begin_ns; end_ns; _ } ->
            Some ("work", w, begin_ns, end_ns)
          | Recorder.Idle { w; begin_ns; end_ns } ->
            Some ("idle", w, begin_ns, end_ns)
          | _ -> None)
        r.Recorder.events
    in
    let us ns = float_of_int ns *. 1e-3 in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "[";
        List.iteri
          (fun i (name, w, begin_ns, end_ns) ->
            if i > 0 then output_string oc ",";
            Printf.fprintf oc
              "\n\
               {\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
              (escape name) w
              (Rpb_prim.Timing.epoch_of_monotonic_us (us begin_ns))
              (us (end_ns - begin_ns)))
          spans;
        output_string oc "\n]\n");
    List.length spans

  let stop_to_file path = to_file path (Recorder.stop ())
end

(* ------------------------------------------------------------------ *)
(* Scheduler fault injection.

   Off by default: its switch is [fault_bit] of the shared [instr_flags]
   word, and every injection site is gated on one atomic load ([armed ()])
   so the scheduler hot paths keep their uninstrumented cost.  When
   enabled, each domain derives a private RNG from the configured seed (and
   its domain id), and at every scheduler decision point — task start,
   successful steal, domain spawn — flips a seeded coin against the
   configured probability.
   Used by [Oracle.fault_sweep] to prove the runtime fails cleanly: injected
   task exceptions must propagate structurally, injected delays and stalls
   must never change results, injected spawn failures must degrade [create]
   to fewer workers instead of crashing. *)

module Fault = struct
  type config = {
    seed : int;  (** derives every per-domain injection stream *)
    task_exn : float;  (** P(raise [Injected] instead of starting a task) *)
    steal_delay : float;  (** P(sleep [delay_us] after a successful steal) *)
    worker_stall : float;  (** P(sleep [delay_us] before executing a task) *)
    spawn_fail : float;  (** P(a [Domain.spawn] attempt fails) *)
    delay_us : int;  (** magnitude of injected delays and stalls *)
  }

  let off =
    {
      seed = 0;
      task_exn = 0.;
      steal_delay = 0.;
      worker_stall = 0.;
      spawn_fail = 0.;
      delay_us = 50;
    }

  exception Injected of string

  type counts = {
    task_exns : int;
    steal_delays : int;
    worker_stalls : int;
    spawn_fails : int;
  }

  let config = Atomic.make off

  (* Bumped on every [enable] so cached per-domain RNGs re-seed. *)
  let generation = Atomic.make 0
  let n_task = Atomic.make 0
  let n_steal = Atomic.make 0
  let n_stall = Atomic.make 0
  let n_spawn = Atomic.make 0
  let armed () = Atomic.get instr_flags land fault_bit <> 0

  let enable cfg =
    Atomic.set config cfg;
    Atomic.set n_task 0;
    Atomic.set n_steal 0;
    Atomic.set n_stall 0;
    Atomic.set n_spawn 0;
    Atomic.incr generation;
    set_instr_bit fault_bit true

  let disable () = set_instr_bit fault_bit false

  let counts () =
    {
      task_exns = Atomic.get n_task;
      steal_delays = Atomic.get n_steal;
      worker_stalls = Atomic.get n_stall;
      spawn_fails = Atomic.get n_spawn;
    }

  let total c = c.task_exns + c.steal_delays + c.worker_stalls + c.spawn_fails

  let rng_key : (int * Rpb_prim.Rng.t) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let my_rng () =
    let slot = Domain.DLS.get rng_key in
    let gen = Atomic.get generation in
    match !slot with
    | Some (g, rng) when g = gen -> rng
    | _ ->
      let cfg = Atomic.get config in
      let rng =
        Rpb_prim.Rng.create
          (Rpb_prim.Rng.hash64
             (cfg.seed lxor (((Domain.self () :> int) + 1) * 0x9E3779B9)))
      in
      slot := Some (gen, rng);
      rng

  let fire p = p > 0. && Rpb_prim.Rng.float (my_rng ()) 1.0 < p

  let delay cfg =
    if cfg.delay_us > 0 then Unix.sleepf (float_of_int cfg.delay_us *. 1e-6)

  (* Injection sites.  Callers gate each on [armed ()]. *)

  let task_site () =
    let cfg = Atomic.get config in
    if fire cfg.task_exn then begin
      let n = Atomic.fetch_and_add n_task 1 in
      raise (Injected (Printf.sprintf "task-exn #%d" n))
    end

  let steal_site () =
    let cfg = Atomic.get config in
    if fire cfg.steal_delay then begin
      Atomic.incr n_steal;
      delay cfg
    end

  let stall_site () =
    let cfg = Atomic.get config in
    if fire cfg.worker_stall then begin
      Atomic.incr n_stall;
      delay cfg
    end

  let spawn_site () =
    let cfg = Atomic.get config in
    if fire cfg.spawn_fail then begin
      Atomic.incr n_spawn;
      raise (Injected "spawn-fail")
    end
end

(* ------------------------------------------------------------------ *)
(* Shared timer wheel.

   One process-wide timer domain services every [run ?deadline] watchdog (and
   any other scheduled callback) instead of each deadline-bearing run spawning
   a [Domain] of its own — the difference between "a CI harness with one
   deadline per run" and "a server with thousands of per-request deadlines".
   The domain is spawned lazily on the first [schedule], parks on a condition
   variable while no timer is pending, and polls at most every [poll_s] while
   one is (OCaml's [Condition] has no timed wait), which matches the 10 ms
   granularity the per-run watchdog domains used to have.

   [cancel] is synchronous: if the entry's callback is mid-flight on the
   timer domain, [cancel] blocks until it completes — so after [cancel]
   returns the callback either ran entirely or never will, and a watchdog can
   never fire into a later run's scope.  Callback exceptions are swallowed
   (a timer must never kill the timer domain); callbacks should be tiny. *)

module Timer = struct
  type handle = {
    fire_at : float;
    seq : int;
    mutable cancelled : bool;  (** guarded by [mutex] *)
    cb : unit -> unit;
  }

  let mutex = Mutex.create ()
  let cond = Condition.create ()

  (* Pending entries sorted by [fire_at] (ties by [seq]).  Insertion is
     O(pending); the serving layer keeps at most a handful of deadlines
     armed at once (requests are admitted into one executing run at a time),
     so a sorted list beats a heap's constant factor here. *)
  let pending : handle list ref = ref []
  let executing : handle option ref = ref None
  let seq_counter = ref 0
  let stop_flag = ref false
  let domain : unit Domain.t option ref = ref None
  let domains_spawned_count = Atomic.make 0
  let at_exit_registered = ref false
  let poll_s = 0.005

  let domains_spawned () = Atomic.get domains_spawned_count

  let rec timer_loop () =
    Mutex.lock mutex;
    let rec step () =
      if !stop_flag then Mutex.unlock mutex
      else
        match !pending with
        | [] ->
          Condition.wait cond mutex;
          step ()
        | e :: rest ->
          if e.cancelled then begin
            pending := rest;
            step ()
          end
          else begin
            let now = Unix.gettimeofday () in
            if e.fire_at <= now then begin
              pending := rest;
              executing := Some e;
              Mutex.unlock mutex;
              (try e.cb () with _ -> ());
              Mutex.lock mutex;
              executing := None;
              (* Wake a [cancel] blocked on this entry (and the loop's own
                 empty-list wait shares the condition; spurious wakeups are
                 re-checked). *)
              Condition.broadcast cond;
              step ()
            end
            else begin
              (* No timed [Condition.wait] in the stdlib: release the lock
                 and nap until the deadline or the next poll tick. *)
              let nap = Float.min (e.fire_at -. now) poll_s in
              Mutex.unlock mutex;
              Unix.sleepf nap;
              timer_loop ()
            end
          end
    in
    step ()

  (* Must be called with [mutex] held. *)
  let ensure_domain () =
    match !domain with
    | Some _ -> ()
    | None ->
      stop_flag := false;
      Atomic.incr domains_spawned_count;
      domain := Some (Domain.spawn timer_loop);
      if not !at_exit_registered then begin
        at_exit_registered := true;
        (* The timer domain must not outlive the program: stop and join it
           at exit so the runtime never waits on a parked domain. *)
        at_exit (fun () ->
            Mutex.lock mutex;
            let d = !domain in
            stop_flag := true;
            domain := None;
            Condition.broadcast cond;
            Mutex.unlock mutex;
            Option.iter Domain.join d)
      end

  let schedule ~delay_s cb =
    if delay_s < 0. then invalid_arg "Pool.Timer.schedule: negative delay";
    Mutex.lock mutex;
    ensure_domain ();
    incr seq_counter;
    let e =
      {
        fire_at = Unix.gettimeofday () +. delay_s;
        seq = !seq_counter;
        cancelled = false;
        cb;
      }
    in
    let rec insert = function
      | [] -> [ e ]
      | x :: _ as l
        when e.fire_at < x.fire_at
             || (e.fire_at = x.fire_at && e.seq < x.seq) ->
        e :: l
      | x :: rest -> x :: insert rest
    in
    pending := insert !pending;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    e

  let cancel e =
    Mutex.lock mutex;
    e.cancelled <- true;
    pending := List.filter (fun x -> x != e) !pending;
    (* If the callback is running right now, wait it out: after [cancel]
       returns the callback must not be able to observe any later state. *)
    while (match !executing with Some x -> x == e | None -> false) do
      Condition.wait cond mutex
    done;
    Mutex.unlock mutex

  let shutdown () =
    Mutex.lock mutex;
    let d = !domain in
    stop_flag := true;
    domain := None;
    (* Abandon pending timers for real: a domain respawned by a later
       [schedule] must not fire entries armed before the shutdown. *)
    List.iter (fun e -> e.cancelled <- true) !pending;
    pending := [];
    Condition.broadcast cond;
    Mutex.unlock mutex;
    Option.iter Domain.join d

  let pending_count () =
    Mutex.lock mutex;
    let n = List.length !pending in
    Mutex.unlock mutex;
    n
end

(* ------------------------------------------------------------------ *)

(* Eventcount-style wakeup: pushers bump [wake_version] then broadcast if any
   worker registered as sleeping; sleepers re-check the version under the
   mutex before waiting, so no wakeup can be missed. *)
let signal_work pool =
  Atomic.incr pool.wake_version;
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex
  end

let push_local pool idx task =
  let dq = pool.deques.(idx) in
  Ws_deque.push dq task;
  let c = pool.counters.(idx) in
  let depth = Ws_deque.size dq in
  if depth > c.(c_max_depth) then c.(c_max_depth) <- depth;
  signal_work pool

let push_external pool task =
  Mutex.lock pool.inj_mutex;
  Queue.push task pool.injector;
  Mutex.unlock pool.inj_mutex;
  signal_work pool

let take_injected pool =
  if Queue.is_empty pool.injector then None
  else begin
    Mutex.lock pool.inj_mutex;
    let t = Queue.take_opt pool.injector in
    Mutex.unlock pool.inj_mutex;
    t
  end

(* One attempt to find work: own deque first (depth-first order), then a
   policy-directed sweep over victims, then the injector.

   Policy decision points (one record field load each): where the sweep
   starts ([victim_selection]) and how much a successful visit claims
   ([steal_amount]).  With [Steal_half] the thief keeps the first task of
   the batch and pushes the rest onto its own deque, so one sweep migrates
   up to half the victim's queue.  [c_last_victim] records the last
   successful victim for the round-robin / sticky policies. *)
let try_find_task pool my_idx rng =
  match Ws_deque.pop pool.deques.(my_idx) with
  | Some _ as t -> t
  | None ->
    let n = pool.num_workers in
    let c = pool.counters.(my_idx) in
    let start =
      if n <= 1 then 0
      else
        match pool.policy.Policy.victim_selection with
        | Policy.Random_victim -> Rpb_prim.Rng.int rng n
        | Policy.Sticky -> c.(c_last_victim) mod n
        | Policy.Round_robin -> (c.(c_last_victim) + 1) mod n
    in
    let stole v t =
      c.(c_steals_ok) <- c.(c_steals_ok) + 1;
      c.(c_last_victim) <- v;
      if Recorder.enabled () then Recorder.steal_event ~thief:my_idx ~victim:v;
      if Fault.armed () then Fault.steal_site ();
      t
    in
    let rec sweep k =
      if k >= n then None
      else begin
        let v = (start + k) mod n in
        if v = my_idx then sweep (k + 1)
        else
          match pool.policy.Policy.steal_amount with
          | Policy.Steal_one -> (
            match Ws_deque.steal pool.deques.(v) with
            | Some _ as t -> stole v t
            | None ->
              c.(c_steals_failed) <- c.(c_steals_failed) + 1;
              sweep (k + 1))
          | Policy.Steal_half -> (
            match Ws_deque.steal_half pool.deques.(v) with
            | first :: rest ->
              (* Keep the first task; the rest go onto our own deque so the
                 next [pop]s find them without another sweep. *)
              List.iter (fun t -> push_local pool my_idx t) rest;
              stole v (Some first)
            | [] ->
              c.(c_steals_failed) <- c.(c_steals_failed) + 1;
              sweep (k + 1))
      end
    in
    (match sweep 0 with
     | Some _ as t -> t
     | None -> take_injected pool)

let execute pool idx task =
  let c = pool.counters.(idx) in
  c.(c_tasks) <- c.(c_tasks) + 1;
  if Fault.armed () then Fault.stall_site ();
  task ()

(* Resize the calling domain's minor heap to the pool's configured size.
   Returns the previous size so [run] can restore the caller's setting.  The
   runtime normalizes out-of-range sizes itself. *)
let apply_minor_heap pool =
  match pool.minor_heap_words with
  | None -> None
  | Some words ->
    let g = Gc.get () in
    Gc.set { g with Gc.minor_heap_size = words };
    Some g.Gc.minor_heap_size

let worker_loop pool idx =
  Domain.DLS.get slot_key := Some (pool.id, idx);
  ignore (apply_minor_heap pool);
  let rng = Rpb_prim.Rng.create (0x5EED + idx) in
  let c = pool.counters.(idx) in
  let spin_budget = pool.policy.Policy.spin_budget in
  let rec loop spins =
    if Atomic.get pool.shutdown_flag then ()
    else
      match try_find_task pool idx rng with
      | Some task ->
        execute pool idx task;
        loop spin_budget
      | None ->
        if spins > 0 then begin
          Domain.cpu_relax ();
          loop (spins - 1)
        end
        else begin
          (* Sleep until new work is signalled (or shutdown). *)
          c.(c_idle) <- c.(c_idle) + 1;
          let idle_t0 =
            if Recorder.enabled () then Recorder.now_ns () else 0
          in
          let seen = Atomic.get pool.wake_version in
          Mutex.lock pool.idle_mutex;
          Atomic.incr pool.sleepers;
          if Atomic.get pool.wake_version = seen
             && not (Atomic.get pool.shutdown_flag)
          then Condition.wait pool.idle_cond pool.idle_mutex;
          Atomic.decr pool.sleepers;
          Mutex.unlock pool.idle_mutex;
          if idle_t0 <> 0 && Recorder.enabled () then
            Recorder.idle_event ~w:idx ~begin_ns:idle_t0;
          loop spin_budget
        end
  in
  loop spin_budget

(* Spawning a domain can fail (OS thread limits, injected faults): retry a
   few times with capped backoff, and report a permanent failure as [None] so
   [make_pool] can degrade to fewer workers instead of crashing. *)
let spawn_attempts = 3

let spawn_worker pool idx =
  let rec attempt k backoff_s =
    match
      if Fault.armed () then Fault.spawn_site ();
      Domain.spawn (fun () -> worker_loop pool idx)
    with
    | d -> Some d
    | exception _ ->
      if k >= spawn_attempts then None
      else begin
        Unix.sleepf backoff_s;
        attempt (k + 1) (Float.min (backoff_s *. 4.) 0.05)
      end
  in
  attempt 1 0.001

let make_pool ?minor_heap_kb ~num_workers ~sched ~policy () =
  if num_workers < 1 then invalid_arg "Pool.create: num_workers must be >= 1";
  (match minor_heap_kb with
   | Some kb when kb < 1 ->
     invalid_arg "Pool.create: minor_heap_kb must be >= 1"
   | _ -> ());
  let pool =
    {
      id = Atomic.fetch_and_add next_pool_id 1;
      num_workers;
      requested_workers = num_workers;
      sched;
      policy;
      (* 64-bit words: 1 KB = 128 words. *)
      minor_heap_words = Option.map (fun kb -> kb * 128) minor_heap_kb;
      deques = Array.init num_workers (fun _ -> Ws_deque.create ());
      domains = [||];
      injector = Queue.create ();
      inj_mutex = Mutex.create ();
      idle_mutex = Mutex.create ();
      idle_cond = Condition.create ();
      wake_version = Atomic.make 0;
      sleepers = Atomic.make 0;
      shutdown_flag = Atomic.make false;
      running = Atomic.make false;
      scope = Atomic.make (new_scope ());
      counters = Array.init num_workers (fun _ -> Array.make counter_slots 0);
    }
  in
  (* Graceful degradation: stop at the first worker whose spawn keeps
     failing, shrink the pool to the workers that exist (indices stay
     contiguous), and let [Stats] report actual vs requested. *)
  let domains = ref [] in
  (try
     for i = 1 to num_workers - 1 do
       match spawn_worker pool i with
       | Some d -> domains := d :: !domains
       | None -> raise Exit
     done
   with Exit -> ());
  pool.domains <- Array.of_list (List.rev !domains);
  pool.num_workers <- Array.length pool.domains + 1;
  pool

let create ?(policy = Policy.default) ?minor_heap_kb ~num_workers () =
  make_pool ?minor_heap_kb ~num_workers ~sched:Ws ~policy ()

let create_deterministic ?(seed = 0) ?(shuffle = true) () =
  make_pool ~num_workers:1 ~policy:Policy.default
    ~sched:(Seq_det { rng = Rpb_prim.Rng.create (0xDE7 lxor seed); shuffle })
    ()

let deterministic pool =
  match pool.sched with Ws -> false | Seq_det _ -> true

(* Resolve every task still sitting in a queue by running its wrapper: with
   [shutdown_flag] set the wrapper fails the promise with [Shutdown] (and with
   a cancelled scope, with [Cancelled]) without touching user code.  Called
   after the worker domains have been joined, so the queues are no longer
   being consumed concurrently — but [Ws_deque.steal] and the injector mutex
   make the sweep safe even against a racing producer. *)
let fail_pending pool =
  let rec drain_injector () =
    match take_injected pool with
    | Some task ->
      task ();
      drain_injector ()
    | None -> ()
  in
  drain_injector ();
  Array.iter
    (fun dq ->
      let rec go () =
        match Ws_deque.steal dq with
        | Some task ->
          task ();
          go ()
        | None -> ()
      in
      go ())
    pool.deques

let shutdown pool =
  if not (Atomic.exchange pool.shutdown_flag true) then begin
    Mutex.lock pool.idle_mutex;
    Condition.broadcast pool.idle_cond;
    Mutex.unlock pool.idle_mutex;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||];
    (* Don't strand pending promises: fail them so a concurrent [await]
       raises [Shutdown] instead of polling forever. *)
    fail_pending pool
  end

let check_alive pool = if Atomic.get pool.shutdown_flag then raise Shutdown

(* The task wrapper.  Structured tasks ([join] branches, and through them
   every [parallel_for] subtree) publish their exception to the scope before
   resolving the promise; unstructured tasks (public [async]) keep the
   exception private to the promise, because callers like [Speculate] and
   [Future] legitimately await-and-handle failures without wanting to tear
   down the whole run. *)
let make_task pool ~structured scope f p () =
  (if Atomic.get pool.shutdown_flag then Atomic.set p (Raised Shutdown)
   else if Atomic.get scope.cancel_flag then
     (* The scope failed before this task started: abandon it. *)
     Atomic.set p (Raised Cancelled)
   else begin
     (* Task bodies execute at depth >= 1: an exception unwinding inside a
        stolen task must not be mistaken for delivery to the run body. *)
     let d = Domain.DLS.get depth_key in
     incr d;
     (match
        if Fault.armed () then Fault.task_site ();
        f ()
      with
      | x ->
        decr d;
        Atomic.set p (Done x)
      | exception e ->
        decr d;
        let bt = Printexc.get_raw_backtrace () in
        if structured then scope_cancel scope e bt;
        Atomic.set p (Raised e))
   end);
  Atomic.decr scope.outstanding

let spawn_task pool ~structured scope f =
  let p = Atomic.make Pending in
  Atomic.incr scope.outstanding;
  let t = make_task pool ~structured scope f p in
  (match my_index pool with
   | Some idx -> push_local pool idx t
   | None ->
     if pool.num_workers = 1 then
       (* No workers to pick the task up: run it eagerly. *)
       t ()
     else push_external pool t);
  p

let async pool f =
  check_alive pool;
  let p = spawn_task pool ~structured:false (Atomic.get pool.scope) f in
  (* Close the race with a concurrent [shutdown]: if the flag flipped after
     [check_alive], [shutdown]'s own drain may already have swept past our
     freshly pushed task — resolve whatever is still queued ourselves. *)
  if Atomic.get pool.shutdown_flag then fail_pending pool;
  p

(* Helping wait: while the promise is pending, execute other pool tasks.  A
   worker never blocks here, so nested fork-join cannot deadlock. *)
let await pool p =
  let finish () =
    match Atomic.get p with
    | Done x -> x
    | Raised e -> raise e
    | Pending -> assert false
  in
  (match my_index pool with
   | Some idx ->
     let rng = Rpb_prim.Rng.create (0xA3A17 + idx) in
     let c = pool.counters.(idx) in
     let spin_budget = pool.policy.Policy.spin_budget in
     let idle_sleep = pool.policy.Policy.idle_sleep_s in
     let rec help spins =
       match Atomic.get p with
       | Pending ->
         (match try_find_task pool idx rng with
          | Some task ->
            execute pool idx task;
            help spin_budget
          | None ->
            if spins > 0 then begin
              Domain.cpu_relax ();
              help (spins - 1)
            end
            else begin
              (* The task is running on another worker; yield the core. *)
              c.(c_idle) <- c.(c_idle) + 1;
              let idle_t0 =
                if Recorder.enabled () then Recorder.now_ns () else 0
              in
              Unix.sleepf idle_sleep;
              if idle_t0 <> 0 && Recorder.enabled () then
                Recorder.idle_event ~w:idx ~begin_ns:idle_t0;
              help spin_budget
            end)
       | Done _ | Raised _ -> ()
     in
     help spin_budget
   | None ->
     (* Off-pool waiter: spin briefly, then back off exponentially (by
        default 1 µs up to 1 ms, policy fields [backoff_min_s] /
        [backoff_max_s]) — a freshly failed or resolved task is observed
        promptly without burning a core, and the worst-case poll latency
        stays three orders of magnitude below the old fixed 100 µs × forever
        loop's pathological wakeup storms under load. *)
     let backoff_max = pool.policy.Policy.backoff_max_s in
     let rec wait delay =
       match Atomic.get p with
       | Pending ->
         Unix.sleepf delay;
         wait (Float.min (delay *. 2.) backoff_max)
       | Done _ | Raised _ -> ()
     in
     let rec spin k =
       match Atomic.get p with
       | Pending ->
         if k > 0 then begin
           Domain.cpu_relax ();
           spin (k - 1)
         end
         else wait pool.policy.Policy.backoff_min_s
       | Done _ | Raised _ -> ()
     in
     spin pool.policy.Policy.spin_budget);
  finish ()

let try_result p =
  match Atomic.get p with
  | Pending -> None
  | Done x -> Some (Ok x)
  | Raised e -> Some (Error e)

(* Wait until every task spawned under [scope] has resolved its promise,
   helping to execute queued ones — each observes [cancel_flag] and resolves
   as [Cancelled] without running user code.  Unbounded by default (a stuck
   task means caller state is still referenced and returning would be
   unsound); when the run had a deadline we give up after it and warn rather
   than hang. *)
let drain_scope pool scope =
  if Atomic.get scope.outstanding > 0 then begin
    let idx = match my_index pool with Some i -> i | None -> 0 in
    let rng = Rpb_prim.Rng.create (0xD4A1 + idx) in
    let give_up =
      match scope.deadline_s with
      | None -> Float.infinity
      | Some d -> Unix.gettimeofday () +. d +. 0.1
    in
    let backoff_min = pool.policy.Policy.backoff_min_s in
    let backoff_max = pool.policy.Policy.backoff_max_s in
    let rec wait delay =
      if Atomic.get scope.outstanding > 0 then
        if Unix.gettimeofday () > give_up then
          Printf.eprintf
            "rpb_pool: warning: giving up drain with %d task(s) of a failed \
             scope still outstanding\n\
             %!"
            (Atomic.get scope.outstanding)
        else begin
          match try_find_task pool idx rng with
          | Some task ->
            execute pool idx task;
            wait backoff_min
          | None ->
            Unix.sleepf delay;
            wait (Float.min (delay *. 2.) backoff_max)
        end
    in
    wait backoff_min
  end

(* A parallel-construct frame.  Tracks per-domain nesting; when a failure
   finishes unwinding out of the outermost construct — the next stop is user
   code in the run body — the scope's outstanding tasks are drained and a
   fresh scope installed before re-raising.  So by the time user code can
   observe the exception (a) no task of the failed scope is still running
   against live state, and (b) catching it leaves the pool's current run
   healthy: subsequent parallel calls work.  [Cancelled] (the splitters'
   relay signal) is unwrapped to the first recorded failure here. *)
let with_construct pool k =
  let scope = Atomic.get pool.scope in
  let d = Domain.DLS.get depth_key in
  incr d;
  match k scope with
  | x ->
    decr d;
    x
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    decr d;
    if !d = 0 then begin
      drain_scope pool scope;
      let e, bt =
        match e with
        | Cancelled -> (
          match Atomic.get scope.first_exn with
          | Some (e0, bt0) -> (e0, bt0)
          | None -> (e, bt))
        | _ -> (e, bt)
      in
      Atomic.set pool.scope (new_scope ?deadline:scope.deadline_s ());
      Printexc.raise_with_backtrace e bt
    end
    else Printexc.raise_with_backtrace e bt

(* The work-stealing [join] engine, parameterized over which branch is
   spawned and which runs inline so the fork-order policy is a role swap
   around one shared implementation.  Returns [(inline result, spawned
   result)]; [join] below reorders the pair to [(f result, g result)]. *)
let ws_join_core pool scope my_idx sp inl =
  if not (Recorder.enabled ()) then begin
    let ps = spawn_task pool ~structured:true scope sp in
    match inl () with
    | a ->
      let b = await pool ps in
      (a, b)
    | exception ei ->
      let bt = Printexc.get_raw_backtrace () in
      scope_cancel scope ei bt;
      (* The sibling may already be running on another worker and
         referencing caller state: wait for its promise to resolve
         (it is skipped if it has not started) before unwinding, so
         the exception never races its own branch's stack frames. *)
      (match await pool ps with _ -> () | exception _ -> ());
      Printexc.raise_with_backtrace ei bt
  end
  else begin
    (* Recording: this join becomes a construct in the recorded
       series-parallel DAG.  The forking strand's segment is closed
       at the fork, branch 0 (the inline branch) is tagged until it
       returns, the spawned branch is tagged by the [run_branch]
       wrapper wherever it executes, and no segment is open across
       [await] — helping or waiting time is never charged as
       work. *)
    let fk = Recorder.fork ~w:my_idx in
    let id, _, _ = fk in
    let ps =
      spawn_task pool ~structured:true scope (Recorder.run_branch pool id sp)
    in
    Recorder.branch_open ~w:my_idx fk;
    match inl () with
    | a ->
      Recorder.seg_close_cur ~w:my_idx;
      let b = await pool ps in
      Recorder.join_done ~w:my_idx fk;
      (a, b)
    | exception ei ->
      let bt = Printexc.get_raw_backtrace () in
      Recorder.seg_close_cur ~w:my_idx;
      scope_cancel scope ei bt;
      (match await pool ps with _ -> () | exception _ -> ());
      Recorder.join_done ~w:my_idx fk;
      Printexc.raise_with_backtrace ei bt
  end

let join pool f g =
  match pool.sched with
  | Seq_det { rng; shuffle } ->
    (* One domain: run both branches here, in a seeded order.  Flipping the
       order is a legal fork-join schedule (the branches are unordered), so a
       result that depends on it is order-sensitive by construction. *)
    if shuffle && Rpb_prim.Rng.bool rng then begin
      let b = g () in
      let a = f () in
      (a, b)
    end
    else begin
      let a = f () in
      let b = g () in
      (a, b)
    end
  | Ws ->
    (match my_index pool with
     | None ->
       let a = f () in
       let b = g () in
       (a, b)
     | Some my_idx ->
       with_construct pool (fun scope ->
           (* Abandon early: a failed sibling anywhere in the scope stops
              this subtree before it forks more work.  One atomic load when
              healthy (plus one for the flight-recorder switch). *)
           if Atomic.get scope.cancel_flag then scope_raise scope;
           (* Fork-order decision point (one record field load).
              Help-first — today's default — pushes [g] and runs [f]
              inline; work-first pushes [f] (the continuation branch) and
              runs [g] (the child) inline, so an idle thief picks up the
              continuation while this worker descends into the child. *)
           match pool.policy.Policy.fork_order with
           | Policy.Help_first ->
             ws_join_core pool scope my_idx g f
           | Policy.Work_first ->
             let b, a = ws_join_core pool scope my_idx f g in
             (a, b)))

(* Grain defaults are a policy decision like the splitter itself: a call
   site that passes no [?grain] gets either the policy's forced grain
   ([fixed_grain], the granularity-sweep lever) or the classic
   leaves-per-worker target [n / (grain_factor * workers)].  The default
   policy's [grain_factor = 8] reproduces the pre-policy constant. *)
let default_grain (pool : pool) n =
  match pool.policy.Policy.fixed_grain with
  | Some g -> max 1 g
  | None -> max 1 (n / (pool.policy.Policy.grain_factor * pool.num_workers))

(* Demand sensing for the lazy splitter: the executing worker's own deque
   depth.  Strictly more than [lazy_depth] pending local tasks means no
   thief is keeping up with what we already published — keep running
   inline.  A task never migrates mid-execution, but a *stolen* range
   executes its [go] on the thief's domain, so the index is consulted per
   call, not captured at the construct. *)
let lazy_deque_deep (pool : pool) ~lazy_depth =
  match my_index pool with
  | Some w -> Ws_deque.size pool.deques.(w) > lazy_depth
  | None -> false

(* Leaf decomposition used by the deterministic executor: contiguous chunks
   of at most [grain] indices, visited in a seeded random order but ascending
   within each leaf — the same guarantee the work-stealing tree gives
   (in-order leaves, unordered across leaves). *)
let seq_det_for ~rng ~grain ~start ~finish ~body =
  let n = finish - start in
  let leaves = Rpb_prim.Util.ceil_div n grain in
  let order = Rpb_prim.Rng.permutation rng leaves in
  Array.iter
    (fun l ->
      let lo = start + (l * grain) in
      let hi = min finish (lo + grain) in
      for i = lo to hi - 1 do
        body i
      done)
    order

let parallel_for ?grain ~start ~finish ~body pool =
  let n = finish - start in
  if n > 0 then begin
    let grain =
      match grain with Some g -> max 1 g | None -> default_grain pool n
    in
    match pool.sched with
    | Seq_det { rng; shuffle = true } ->
      seq_det_for ~rng ~grain ~start ~finish ~body
    | Seq_det { shuffle = false; _ } ->
      for i = start to finish - 1 do
        body i
      done
    | Ws ->
    if pool.num_workers = 1 || my_index pool = None then
      for i = start to finish - 1 do
        body i
      done
    else begin
      match pool.policy.Policy.splitter with
      | Policy.Eager_grain ->
        with_construct pool (fun scope ->
            let rec go lo hi =
              (* Check before descending: a failed scope stops splitting (and
                 skips this whole subtree) instead of running siblings of the
                 failed leaf to completion. *)
              if Atomic.get scope.cancel_flag then scope_raise scope;
              if hi - lo <= grain then
                for i = lo to hi - 1 do
                  body i
                done
              else begin
                let mid = lo + ((hi - lo) / 2) in
                let ((), ()) =
                  join pool (fun () -> go lo mid) (fun () -> go mid hi)
                in
                ()
              end
            in
            go start finish)
      | Policy.Lazy_binary { lazy_depth } ->
        with_construct pool (fun scope ->
            let rec go lo hi =
              if Atomic.get scope.cancel_flag then scope_raise scope;
              if hi - lo <= grain then
                for i = lo to hi - 1 do
                  body i
                done
              else if lazy_deque_deep pool ~lazy_depth then begin
                (* May-inline fast path: no thief demand, so consume
                   [grain]-sized chunks with zero deque traffic.  The
                   remainder [!lo, hi) lives only in this strand's frame —
                   nothing is published until the split below pushes a task
                   — so a thief can never observe, duplicate, or race any
                   part of it.  At least one chunk is consumed before
                   re-checking demand, which guarantees progress even if a
                   thief drains the deque between the two depth reads. *)
                let lo = ref lo in
                let chomping = ref true in
                while !chomping do
                  if Atomic.get scope.cancel_flag then scope_raise scope;
                  let stop = !lo + grain in
                  for i = !lo to stop - 1 do
                    body i
                  done;
                  lo := stop;
                  if hi - !lo <= grain || not (lazy_deque_deep pool ~lazy_depth)
                  then chomping := false
                done;
                (* Left-over range: a final sub-grain leaf, or — if the deque
                   drained — back to the splitting path below. *)
                if !lo < hi then go !lo hi
              end
              else begin
                (* The deque drained to the demand threshold: split off the
                   top half of the remaining range as one task and keep
                   going on the bottom half. *)
                let mid = lo + ((hi - lo) / 2) in
                let ((), ()) =
                  join pool (fun () -> go lo mid) (fun () -> go mid hi)
                in
                ()
              end
            in
            go start finish)
    end
  end

let parallel_for_reduce ?grain ~start ~finish ~body ~combine ~init pool =
  let n = finish - start in
  if n <= 0 then init
  else begin
    let grain =
      match grain with Some g -> max 1 g | None -> default_grain pool n
    in
    let leaf lo hi =
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := combine !acc (body i)
      done;
      !acc
    in
    match pool.sched with
    | Seq_det { rng; shuffle = true } ->
      (* Evaluate the leaves in a seeded shuffled order, but combine them in
         index order: execution timing moves, the (associative) combine tree
         does not — exactly what a parallel schedule may do. *)
      let leaves = Rpb_prim.Util.ceil_div n grain in
      let results = Array.make leaves init in
      let order = Rpb_prim.Rng.permutation rng leaves in
      Array.iter
        (fun l ->
          let lo = start + (l * grain) in
          let hi = min finish (lo + grain) in
          results.(l) <- leaf lo hi)
        order;
      Array.fold_left combine init results
    | Seq_det { shuffle = false; _ } -> leaf start finish
    | Ws ->
    if pool.num_workers = 1 || my_index pool = None then leaf start finish
    else begin
      match pool.policy.Policy.splitter with
      | Policy.Eager_grain ->
        with_construct pool (fun scope ->
            let rec go lo hi =
              if Atomic.get scope.cancel_flag then scope_raise scope;
              if hi - lo <= grain then leaf lo hi
              else begin
                let mid = lo + ((hi - lo) / 2) in
                let a, b =
                  join pool (fun () -> go lo mid) (fun () -> go mid hi)
                in
                combine a b
              end
            in
            go start finish)
      | Policy.Lazy_binary { lazy_depth } ->
        (* Same adaptive shape as [parallel_for]'s lazy path, threading an
           accumulator through the inline chunks.  The combine tree is
           left-leaning along the fast path instead of balanced; since
           [combine] is associative (the documented contract, which eager
           splitting already leans on — its tree shape moves with [grain]),
           the result is unchanged. *)
        with_construct pool (fun scope ->
            let rec go lo hi =
              if Atomic.get scope.cancel_flag then scope_raise scope;
              if hi - lo <= grain then leaf lo hi
              else if lazy_deque_deep pool ~lazy_depth then begin
                (* [hi - lo > grain] on entry, so the unconditional first
                   chunk stays in range and guarantees progress; the loop
                   invariant [!lo < hi] holds because chunks are only
                   consumed while [hi - !lo > grain]. *)
                let acc = ref (leaf lo (lo + grain)) in
                let lo = ref (lo + grain) in
                while
                  hi - !lo > grain && lazy_deque_deep pool ~lazy_depth
                do
                  if Atomic.get scope.cancel_flag then scope_raise scope;
                  let stop = !lo + grain in
                  acc := combine !acc (leaf !lo stop);
                  lo := stop
                done;
                if hi - !lo <= grain then combine !acc (leaf !lo hi)
                else combine !acc (go !lo hi)
              end
              else begin
                let mid = lo + ((hi - lo) / 2) in
                let a, b =
                  join pool (fun () -> go lo mid) (fun () -> go mid hi)
                in
                combine a b
              end
            in
            go start finish)
    end
  end

let parallel_chunks ?grain ~start ~finish ~body pool =
  let n = finish - start in
  if n > 0 then begin
    let grain =
      match grain with Some g -> max 1 g | None -> default_grain pool n
    in
    let chunks = Rpb_prim.Util.ceil_div n grain in
    parallel_for ~grain:1 ~start:0 ~finish:chunks
      ~body:(fun c ->
        let lo = start + (c * grain) in
        let hi = min finish (lo + grain) in
        body lo hi)
      pool
  end

(* Deadline watchdog: one [Timer] entry on the shared timer wheel (not a
   dedicated domain — a server multiplexing thousands of deadline-bearing
   runs must not spawn a [Domain] apiece).  At expiry it cancels the run's
   *current* scope — construct recovery may have replaced the one installed
   at [run] entry — with [Stalled] carrying a per-worker counter dump, and
   wakes any sleeping workers so the flag is observed.  Running tasks are
   not interrupted (OCaml has no asynchronous cancellation); splitters and
   fresh tasks observe the flag at their next check, which is what turns a
   hang into a structured failure.  [finish] cancels the entry *before*
   installing a fresh scope, and [Timer.cancel] waits out a mid-flight
   callback, so a watchdog can never fire into a later run's scope. *)
let start_watchdog pool deadline_s =
  Timer.schedule ~delay_s:deadline_s (fun () ->
      let dump = Stats.to_string (Stats.capture pool) in
      scope_cancel
        (Atomic.get pool.scope)
        (Stalled
           (Printf.sprintf
              "Pool.run exceeded its %.3fs deadline; per-worker counters:\n%s"
              deadline_s dump))
        (Printexc.get_callstack 0);
      signal_work pool)

(* External cooperative cancellation: flag the pool's current scope with
   [exn] exactly as the deadline watchdog does, so splitters and
   not-yet-started tasks of the active run observe it at their next check
   and [run] re-raises [exn].  Best-effort by design — a no-op when no run
   is active (the idle scope is replaced at the next [run] entry), and
   tasks already executing are not interrupted.  This is the primitive the
   serving layer uses when a client disconnects mid-request. *)
let cancel_run pool exn =
  scope_cancel (Atomic.get pool.scope) exn (Printexc.get_callstack 0);
  signal_work pool

let run ?deadline pool f =
  check_alive pool;
  (match my_index pool with
   | Some _ -> invalid_arg "Pool.run: nested run on the same pool"
   | None -> ());
  (match deadline with
   | Some d when d <= 0. -> invalid_arg "Pool.run: deadline must be positive"
   | _ -> ());
  if Atomic.exchange pool.running true then
    invalid_arg "Pool.run: pool already has an active run";
  Atomic.set pool.scope (new_scope ?deadline ());
  let slot = Domain.DLS.get slot_key in
  slot := Some (pool.id, 0);
  (* The caller is worker 0 for the duration of the run: give it the pool's
     per-domain minor heap too, and put the caller's own setting back in
     [finish] so the sizing never leaks past the run. *)
  let saved_minor_heap = apply_minor_heap pool in
  let watchdog = Option.map (start_watchdog pool) deadline in
  (* Leave no task of this run behind: whether [f] returns or raises, every
     outstanding promise of the run's current scope is resolved before
     control goes back to the caller (construct recovery already drained any
     earlier failed scope), so pool tasks never reference a dead stack
     frame. *)
  let finish () =
    let scope = Atomic.get pool.scope in
    drain_scope pool scope;
    (* Cancel before installing a fresh scope: [Timer.cancel] waits out a
       callback already firing, so a late watchdog can only ever have hit
       this (finished) run's scope. *)
    Option.iter Timer.cancel watchdog;
    (match saved_minor_heap with
     | None -> ()
     | Some words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words });
    slot := None;
    Atomic.set pool.scope (new_scope ());
    Atomic.set pool.running false;
    scope
  in
  match f () with
  | x ->
    (* The body completed, but the watchdog may have flagged the scope (a
       deadline overrun spent in un-cancellable work): surface [Stalled]
       rather than pretend the deadline held. *)
    let scope = finish () in
    if Atomic.get scope.cancel_flag then scope_raise scope;
    x
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    let scope = Atomic.get pool.scope in
    (* Flag the scope so queued tasks resolve as [Cancelled] instead of
       executing against a dying run, then drain them. *)
    scope_cancel scope e bt;
    ignore (finish ());
    (match e with
     | Cancelled ->
       (* Relay signal (e.g. [await] of a cancelled promise at the run-body
          level): unwrap to the first recorded failure. *)
       scope_raise scope
     | _ -> Printexc.raise_with_backtrace e bt)

let current_worker = my_index

(* Live scheduler gauge for the metrics plane: instantaneous per-worker
   deque depths (racy [Ws_deque.size] reads — a point-in-time occupancy
   sketch, not an invariant). *)
let deque_depths pool =
  Array.init pool.num_workers (fun i -> Ws_deque.size pool.deques.(i))
