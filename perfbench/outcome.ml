(* The result line, the last line of standard output: correct, attempted,
   failed, and the metrics by name with their units. *)

module J = Rpb_benchmarks.Bench_json

let line ~correct ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                metrics) ) ])

(* Evaluates [metrics] (name, unit, value) and returns the result line and
   the exit code: 0 only when no operation failed.  A benchmark left with no
   sample, or a tail metric refused, makes the run incorrect; its line still
   carries [attempted] and [failed], without metrics. *)
let report ~attempted ~failed metrics =
  match metrics () with
  | m -> (line ~correct:(failed = 0) ~attempted ~failed m, if failed = 0 then 0 else 1)
  | exception (Loop.No_samples msg | Stat.Refused msg) ->
    prerr_endline ("perfbench: " ^ msg);
    (line ~correct:false ~attempted ~failed [], 1)
