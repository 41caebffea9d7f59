(** Shadow arrays — a dynamic race detector for indirect parallel writes.

    A shadow array wraps a plain payload array and, while instrumentation is
    switched on, records which logical write ({e task}) last touched every
    slot within the current operation ({e epoch}).  A second write to a slot
    in the same epoch is exactly the invariant violation the unchecked ends
    of the fear spectrum gamble on — duplicate offsets under
    [Scatter.unchecked]/[atomic]/[mutexed], overlapping chunks under
    [Chunks_ind ~check:false] — and is reported as a structured {!race}
    carrying both offending source positions and both worker ids.

    The detection protocol is sound for within-epoch duplicates: the first
    writer claims the slot's epoch stamp with a compare-and-set; any
    subsequent (or colliding) writer either observes the claimed stamp or
    loses the CAS, and reports in both cases.  Under a deterministic
    sequential executor ({!Seq_exec}) the {e first}/{e second} attribution is
    exact as well.

    Instrumentation is a process-global switch in the style of
    [Pool.Recorder]: when it is off, a shadow write costs one atomic load on
    top of the plain store — cheap enough to leave shadow-wrapped code in test harnesses
    permanently. *)

open Rpb_pool

type race = {
  index : int;  (** the slot written more than once in one epoch *)
  first_src : int;  (** source label of the write that owned the slot *)
  first_task : int;  (** worker id of that write ([-1]: outside a pool) *)
  second_src : int;  (** source label of the conflicting write *)
  second_task : int;  (** worker id of the conflicting write *)
}

val race_to_string : race -> string

(** {1 The global instrumentation switch} *)

val instrumentation_enabled : unit -> bool

val set_instrumentation : bool -> unit

val with_instrumentation : bool -> (unit -> 'a) -> 'a
(** Runs the thunk with the switch forced to the given value, restoring the
    previous value on exit (exceptions included). *)

(** {1 Shadow arrays} *)

type 'a t

val create : ?pool:Pool.t -> 'a array -> 'a t
(** [create ?pool payload] wraps [payload] (not copied — the shadow writes
    through to it).  When [pool] is given, writes are attributed to
    [Pool.current_worker pool]; otherwise every write reports task [-1]. *)

val payload : 'a t -> 'a array
(** The wrapped array, reflecting every write made through the shadow. *)

val length : 'a t -> int

val begin_op : 'a t -> unit
(** Starts a new epoch: writes before and after [begin_op] are considered
    sequenced (no race between them).  Call it once per logical parallel
    operation; {!Instrument}'s wrappers do this for you. *)

val write : 'a t -> idx:int -> src:int -> 'a -> unit
(** Writes [payload.(idx)], recording the write against the current epoch
    when instrumentation is on.  @raise Rpb_core.Scatter.Offset_out_of_range
    when [idx] is outside the payload. *)

val races : 'a t -> race list
(** All races recorded since creation (or {!clear_races}), oldest first. *)

val race_count : 'a t -> int

val clear_races : 'a t -> unit

val write_count : 'a t -> int
(** Instrumented writes observed (0 while the switch is off). *)

(** {1 The store instance}

    [Store] plugs shadow arrays under the store-polymorphic scatter and
    chunk operators: [Scatter.Make (Shadow.Store)] observes all four SngInd
    modes, [Chunks_ind.Make (Shadow.Store)] the RngInd operator.  See
    {!Instrument} for ready-made instances. *)

module Store : Rpb_core.Scatter.STORE with type 'a t = 'a t
