(* The serve workload's client: boots an [rpb serve] process and drives it
   over at most two connections, with an open loop of Poisson arrivals or a
   closed window of outstanding requests.

   Unlike [Loadgen], every request is timed from its scheduled send time,
   and the schedule never slides when a send runs late, so a stall is
   charged to every request it delays.  There are no retries: a shed, an
   error or a lost reply is a failed request, and its latency is infinite
   (it misses every limit). *)

module Protocol = Rpb_serve.Protocol
module Top = Rpb_serve.Top

let now = Rpb_prim.Timing.now

(* ------------------------------------------------------------------ *)
(* Server process *)

let rec connect ~deadline socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception (Unix.Unix_error _ as e) ->
    Unix.close fd;
    if now () > deadline then raise e;
    Unix.sleepf 0.005;
    connect ~deadline socket

(* One [stats] round trip on a fresh connection.  The accept thread starts
   only after every preload is prepared, so the first answer marks the
   server ready. *)
let stats_once ~deadline socket =
  let fd = connect ~deadline socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Protocol.write_frame fd (Protocol.request_line (Protocol.stats_request ~id:0));
      match Protocol.read_frame (Protocol.reader fd) with
      | Some payload -> payload
      | None -> failwith "perfbench: server closed the stats connection")

let boot ~rpb ~socket ~threads ~max_queue ~preload =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ rpb; "serve"; "--threads"; string_of_int threads; "--max-queue";
      string_of_int max_queue; "--socket"; socket; "--quiet"; "--scale-cap";
      string_of_int (List.fold_left (fun m (_, s) -> max m s) 0 preload) ]
    @ List.concat_map
        (fun (b, scale) -> [ "--preload"; Printf.sprintf "%s::%d" b scale ])
        preload
  in
  let pid =
    Unix.create_process rpb (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  (try ignore (stats_once ~deadline:(now () +. 60.) socket)
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  pid

(* SIGTERM drains the server; wait until it has exited. *)
let shutdown pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* ------------------------------------------------------------------ *)
(* Connections *)

type status = Pending | Ok | Shed | Error | Lost

type slot = {
  mutable bench : string;
  mutable scale : int;
  mutable sched : float;  (** when the request was due, monotonic s *)
  mutable sent : float;
  mutable recv : float;
  mutable status : status;
  mutable queue_ms : float;
  mutable exec_ms : float;
  mutable digest : int;
}

type client = {
  conns : (Unix.file_descr * Mutex.t) array;
  slots : slot array;  (** indexed by request id *)
  lock : Mutex.t;
  mutable outstanding : int;
  mutable stats_reply : string option;
  mutable protocol_errors : int;
  mutable readers : Thread.t list;
}

let on_frame c payload =
  let t = now () in
  Mutex.lock c.lock;
  (if String.length payload > 0 && payload.[0] = '{' then
     c.stats_reply <- Some payload
   else
     match Protocol.parse_reply payload with
     | Error _ -> c.protocol_errors <- c.protocol_errors + 1
     | Stdlib.Ok reply ->
       let id = Protocol.reply_id reply in
       if id < 0 || id >= Array.length c.slots || c.slots.(id).status <> Pending
       then c.protocol_errors <- c.protocol_errors + 1
       else begin
         let s = c.slots.(id) in
         s.recv <- t;
         c.outstanding <- c.outstanding - 1;
         match reply with
         | Protocol.Ok_reply r ->
           s.status <- Ok;
           s.queue_ms <- r.queue_ms;
           s.exec_ms <- r.exec_ms;
           s.digest <- r.digest
         | Protocol.Err_reply { kind = Protocol.Overloaded; _ } -> s.status <- Shed
         | Protocol.Err_reply _ -> s.status <- Error
       end);
  Mutex.unlock c.lock

let reader c fd =
  let r = Protocol.reader fd in
  let rec go () =
    match Protocol.read_frame r with
    | None -> ()
    | Some payload ->
      on_frame c payload;
      go ()
  in
  try go () with Protocol.Malformed _ | Unix.Unix_error _ | Sys_error _ -> ()

let open_client ~socket ~connections ~requests =
  let deadline = now () +. 10. in
  let conns =
    Array.init connections (fun _ -> (connect ~deadline socket, Mutex.create ()))
  in
  let c =
    {
      conns;
      slots =
        Array.init requests (fun _ ->
            { bench = ""; scale = 0; sched = 0.; sent = 0.; recv = 0.; status = Pending;
              queue_ms = 0.; exec_ms = 0.; digest = 0 });
      lock = Mutex.create ();
      outstanding = 0;
      stats_reply = None;
      protocol_errors = 0;
      readers = [];
    }
  in
  c.readers <- Array.to_list (Array.map (fun (fd, _) -> Thread.create (reader c) fd) conns);
  c

let close_client c =
  Array.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    c.conns;
  List.iter Thread.join c.readers;
  Array.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) c.conns

let send c conn line =
  let fd, m = c.conns.(conn mod Array.length c.conns) in
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> Protocol.write_frame fd line)

(* A [stats] snapshot over the last connection, between run requests. *)
let stats c =
  Mutex.lock c.lock;
  c.stats_reply <- None;
  Mutex.unlock c.lock;
  send c (Array.length c.conns - 1)
    (Protocol.request_line (Protocol.stats_request ~id:0));
  Mutex.lock c.lock;
  let deadline = now () +. 5. in
  while c.stats_reply = None && now () < deadline do
    Mutex.unlock c.lock;
    Thread.delay 0.001;
    Mutex.lock c.lock
  done;
  let r = c.stats_reply in
  Mutex.unlock c.lock;
  match r with
  | None -> failwith "perfbench: no stats reply"
  | Some payload -> (
    match Top.parse_snapshot (Rpb_benchmarks.Bench_json.of_string payload) with
    | Stdlib.Ok snap -> snap
    | Stdlib.Error msg -> failwith ("perfbench: bad stats reply: " ^ msg))

(* [Top] keeps its own lookups out of its interface. *)
let counter snap name = Option.value (List.assoc_opt name snap.Top.counters) ~default:0
let gauge snap name = Option.value (List.assoc_opt name snap.Top.gauges) ~default:0.

(* ------------------------------------------------------------------ *)
(* Arrival schedules *)

(* [n] Poisson arrivals at [rate] per second, as offsets from the phase
   start, each with a job (a bench and its scale) drawn uniformly from
   [mix].  Pure in [rng]. *)
let schedule rng ~rate ~n ~mix =
  let mix = Array.of_list mix in
  let t = ref 0. in
  Array.init n (fun _ ->
      let u = 1. -. Rpb_prim.Rng.float rng 1. in
      t := !t +. (-.log u /. rate);
      (!t, mix.(Rpb_prim.Rng.int rng (Array.length mix))))

(* [n] jobs drawn uniformly from [mix], for a closed window.  Pure in
   [rng]. *)
let draw rng ~n ~mix =
  let mix = Array.of_list mix in
  Array.init n (fun _ -> mix.(Rpb_prim.Rng.int rng (Array.length mix)))

type phase = {
  first : int;  (** first request id *)
  n : int;
  occupancy : float array;  (** [serve.occupancy] samples, traced runs only *)
  shed_counter : int;  (** [serve.shed] delta, traced runs only *)
}

(* Marks request [id] for [bench] at [scale] due at [due] and sends it, on
   connection [id mod connections]. *)
let submit c ~id ~bench:(bench, scale) ~due =
  let s = c.slots.(id) in
  Mutex.lock c.lock;
  s.bench <- bench;
  s.scale <- scale;
  s.sched <- due;
  c.outstanding <- c.outstanding + 1;
  Mutex.unlock c.lock;
  s.sent <- now ();
  send c id
    (Protocol.request_line
       (Protocol.request ~id ~bench ~scale ~mode:"unsafe" ()))

(* Waits until at most [limit] requests are outstanding, or until [deadline];
   [c.lock] is held on return. *)
let wait_outstanding c ~limit ~deadline =
  Mutex.lock c.lock;
  while c.outstanding > limit && now () < deadline do
    Mutex.unlock c.lock;
    Thread.delay 0.0005;
    Mutex.lock c.lock
  done

(* Waits for every reply of requests [first, first + n) ([grace_s] at most)
   and marks the ones still pending as lost. *)
let await c ~first ~n ~grace_s =
  wait_outstanding c ~limit:0 ~deadline:(now () +. grace_s);
  for id = first to first + n - 1 do
    let s = c.slots.(id) in
    if s.status = Pending then begin
      s.status <- Lost;
      (* A window phase cut short leaves requests that were never sent. *)
      if s.sent > 0. then c.outstanding <- c.outstanding - 1
    end
  done;
  Mutex.unlock c.lock

(* Runs one phase: sends [arrivals] on schedule, spreading them over the
   connections, then waits for every reply ([grace_s] at most).  With
   [sample_every > 0], the sender also takes a [stats] snapshot at most
   every [sample_every] seconds, when the next send is 2 ms away or more. *)
let run_phase c ~first ~arrivals ~sample_every ~grace_s =
  let n = Array.length arrivals in
  let occ = ref [] in
  let shed0 = if sample_every > 0. then counter (stats c) "serve.shed" else 0 in
  let start = now () +. 0.002 in
  let next_sample = ref start in
  Array.iteri
    (fun k (off, bench) ->
      let id = first + k in
      let due = start +. off in
      if sample_every > 0. && due -. now () > 0.002 && now () >= !next_sample
      then begin
        occ := gauge (stats c) "serve.occupancy" :: !occ;
        next_sample := now () +. sample_every
      end;
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      submit c ~id ~bench ~due)
    arrivals;
  await c ~first ~n ~grace_s;
  let shed_counter =
    if sample_every > 0. then counter (stats c) "serve.shed" - shed0 else 0
  in
  { first; n; occupancy = Array.of_list !occ; shed_counter }

(* Runs one closed-window phase: sends [requests] one after another, each
   as soon as fewer than [window] requests are outstanding, so the server's
   queue never runs dry (and, with [window] below its admission bound,
   never sheds); then waits for every reply ([grace_s] at most).  A request
   is due when it is sent. *)
let run_window c ~first ~requests ~window ~grace_s =
  let n = Array.length requests in
  (* Stops refilling once a reply is [grace_s] overdue; [await] then marks
     the rest lost. *)
  let rec go k =
    if k < n then begin
      wait_outstanding c ~limit:(window - 1) ~deadline:(now () +. grace_s);
      let full = c.outstanding >= window in
      Mutex.unlock c.lock;
      if not full then begin
        submit c ~id:(first + k) ~bench:requests.(k) ~due:(now ());
        go (k + 1)
      end
    end
  in
  go 0;
  await c ~first ~n ~grace_s;
  { first; n; occupancy = [||]; shed_counter = 0 }

(* ------------------------------------------------------------------ *)
(* Summaries over the requests of one or more phases *)

let slots_of c p = Array.sub c.slots p.first p.n

(* Client latency from the scheduled send time; infinite for a request that
   did not end in an ok reply. *)
let latency_ms s =
  if s.status = Ok then (s.recv -. s.sched) *. 1e3 else infinity

let ok slots = List.filter (fun s -> s.status = Ok) (Array.to_list slots)
let lat slots = Array.map latency_ms slots
let late slots = Array.map (fun s -> (s.sent -. s.sched) *. 1e3) slots
let field f slots = Array.of_list (List.map f (ok slots))
let queue_ms = field (fun s -> s.queue_ms)
let exec_ms = field (fun s -> s.exec_ms)
let residual_ms = field (fun s -> latency_ms s -. s.queue_ms -. s.exec_ms)

let failed slots =
  Array.fold_left (fun acc s -> if s.status = Ok then acc else acc + 1) 0 slots

(* Ok replies and the time from the first scheduled send to the last
   reply, for throughput pooled over several phases. *)
let served slots =
  let last = Array.fold_left (fun acc s -> Float.max acc s.recv) 0. slots in
  (List.length (ok slots), last -. slots.(0).sched)
