(* The workload table and one invocation of the benchmark. *)

let workloads : (string * (Metric.ctx -> Metric.outcome)) list =
  [
    ("compile-suite", fun ctx -> Compile_suite.run ctx);
    ("serve-drift", Serve.run Serve.drift);
    ("serve-exact", Serve.run Serve.exact);
    ("decode-mixed", fun ctx -> Decode_mixed.run ctx);
  ]

(* Runs the workload; the correctness gate is folded into [errors],
   together with any departure from the declared metric set. *)
let run name (ctx : Metric.ctx) : Metric.outcome =
  let w = List.assoc name workloads in
  Span.reset ();
  Stat.calibrations := [];
  let o =
    match w ctx with
    | o -> o
    | exception e ->
        { Metric.attempted = 0; failed = 0; errors = [ Printexc.to_string e ]; values = [] }
  in
  let values =
    List.map
      (fun (k, v) ->
        if k = "host.calibration_ms" then (k, 1000.0 *. Stat.median (Array.of_list !Stat.calibrations))
        else (k, v))
      o.values
  in
  let errors = if o.errors <> [] then o.errors else Metric.check_values ~trace:ctx.trace values in
  { o with errors; values }
