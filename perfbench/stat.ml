(* Summary statistics for the benchmark.  Every percentile goes through
   [Rpb_obs.Stats.percentile_sorted], and so through [nearest_rank], the
   repo's single rank definition, so the benchmark and the server's own
   latency summaries agree on what "p99" means. *)

module S = Rpb_obs.Stats

(* Fewest samples a percentile must leave above its rank before it is
   reported: a p99 over 500 samples rests on 5 values and is refused. *)
let min_beyond = 10

(* A tail metric that cannot be reported; the run fails rather than print
   it. *)
exception Refused of string

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* The nearest-rank median (not [S.median], which interpolates). *)
let median xs = S.percentile_sorted (sorted xs) 50.

(* The nearest-rank lower quartile. *)
let lower_quartile xs = S.percentile_sorted (sorted xs) 25.

(* A tail percentile, or [None] when fewer than [min_beyond] samples lie
   beyond its rank. *)
let tail xs pct =
  let n = Array.length xs in
  if n = 0 || n - S.nearest_rank ~count:n ~pct < min_beyond then None
  else Some (S.percentile_sorted (sorted xs) pct)

(* [tail], raising [Refused] with the metric's [name] instead of [None]. *)
let tail_exn name xs pct =
  match tail xs pct with
  | Some v -> v
  | None ->
    raise
      (Refused
         (Printf.sprintf "%s: %d samples leave fewer than %d beyond p%g" name
            (Array.length xs) min_beyond pct))

let geomean xs =
  if Array.length xs = 0 then invalid_arg "Stat.geomean: no samples";
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Stat.geomean: non-positive")
    xs;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (Array.length xs))
