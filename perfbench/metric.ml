(* Metric declarations (mirrored by BENCHMARK.json) and the result line.

   Every workload emits every declared metric: the end-to-end set when
   untraced, the per-layer set when traced. NOTES.md states, per
   workload, which metrics its traffic drives and what the others mean
   there. *)

type better = Lower | Higher

(* Host: read off the host clock and scaled to the reference host speed
   (Stat.timed), so it still varies a little run to run. Alloc: bytes
   allocated, from the GC's counters, which OCaml 5 advances by up to a
   minor heap per minor collection, and the number of collections
   varies with the process's history. Exact: simulated or counted, so it
   repeats exactly under one seed. *)
type kind = Host | Alloc | Exact

type decl = { name : string; unit : string; better : better; kind : kind }

let d ?(host = false) name unit better =
  let kind = if host then Host else if unit = "MB" || unit = "B" then Alloc else Exact in
  { name; unit; better; kind }

let end_to_end =
  [
    d ~host:true "setup_s" "s" Lower;
    d ~host:true "compile_ms" "ms" Lower;
    d "compile_alloc_mb" "MB" Lower;
    d "device_us_geomean" "us" Lower;
    d ~host:true "host_rps" "1/s" Higher;
    d "alloc_b_per_req" "B" Lower;
    d "p50_us" "us" Lower;
    d "p999_us" "us" Lower;
    d "slo_attainment" "ratio" Higher;
    d "capacity_rps" "1/s" Higher;
    d "tokens_per_s" "1/s" Higher;
    d "ttft_p50_us" "us" Lower;
    d "ttft_p99_us" "us" Lower;
    d "tpot_p99_us" "us" Lower;
  ]

let per_layer =
  [
    (* compiler layers, driven by compile-suite *)
    d ~host:true "ir.passes_ms" "ms" Lower;
    d ~host:true "fusion.plan_ms" "ms" Lower;
    d ~host:true "codegen.build_ms" "ms" Lower;
    d ~host:true "mem.estimate_ms" "ms" Lower;
    d ~host:true "tune.search_ms" "ms" Lower;
    d ~host:true "runtime.simulate_ms" "ms" Lower;
    d "ir.passes_alloc_mb" "MB" Lower;
    d "fusion.plan_alloc_mb" "MB" Lower;
    d "tune.search_alloc_mb" "MB" Lower;
    d "ir.insts" "count" Lower;
    d "fusion.kernels" "count" Lower;
    d "gpusim.launches" "count" Lower;
    d "gpusim.bytes_moved_mb" "MB" Lower;
    d "tune.illegal" "count" Lower;
    (* serving layer, driven by serve-drift and serve-exact *)
    d ~host:true "serving.trace_gen_ms" "ms" Lower;
    d ~host:true "serving.pool_create_ms" "ms" Lower;
    d ~host:true "serving.pool_run_ms" "ms" Lower;
    d "serving.batches" "count" Lower;
    d "serving.mean_batch" "count" Higher;
    d "serving.padding_waste" "ratio" Lower;
    d "serving.cold_dispatches" "count" Lower;
    d "serving.peak_queued" "count" Lower;
    d "serving.replica_busy_share" "ratio" Lower;
    d "serving.distinct_signatures" "count" Lower;
    (* unit costs on the serving path's dispatch envs *)
    d ~host:true "runtime.simulate_us" "us" Lower;
    d ~host:true "mem.peak_bound_us" "us" Lower;
    (* decode layer, driven by decode-mixed *)
    d ~host:true "decode.run_ms" "ms" Lower;
    d "decode.steps" "count" Lower;
    d "decode.prefill_batches" "count" Lower;
    d "decode.mean_batch" "count" Higher;
    d "decode.slot_waste" "ratio" Lower;
    d "decode.warm_rate" "ratio" Higher;
    d "decode.signatures" "count" Lower;
    d "decode.cold_dispatches" "count" Lower;
    (* the tracer itself *)
    d ~host:true "trace.total_ms" "ms" Lower;
    d ~host:true "trace.overhead_ms" "ms" Lower;
    d ~host:true "trace.unattributed_ms" "ms" Lower;
    (* the host clock: raw time of the calibration loop (Stat), whose
       nominal time every host metric is scaled to *)
    d ~host:true "host.calibration_ms" "ms" Lower;
  ]

let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = '.' || c = '-'
  in
  let alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  String.length s >= 1 && String.length s <= 64 && alnum s.[0] && String.for_all ok s

let valid_unit s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || String.contains "_/%.-" c
  in
  String.length s >= 1 && String.length s <= 16 && String.for_all ok s

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** correctness-gate violations; empty when correct *)
  values : (string * float) list;
}

let decls ~trace = if trace then per_layer else end_to_end

(* The set of values must be exactly the declared set, each finite. *)
let check_values ~trace values =
  let names = List.map (fun d -> d.name) (decls ~trace) in
  let missing = List.filter (fun n -> not (List.mem_assoc n values)) names in
  let extra = List.filter (fun (n, _) -> not (List.mem n names)) values in
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) values in
  List.map (fun n -> "metric missing: " ^ n) missing
  @ List.map (fun (n, _) -> "metric undeclared: " ^ n) extra
  @ List.map (fun (n, _) -> "metric not finite: " ^ n) bad

let to_json ~trace (o : outcome) =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (o.errors = []));
      ("attempted", Obs.Json.Int o.attempted);
      ("failed", Obs.Json.Int o.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun dl ->
               ( dl.name,
                 Obs.Json.Obj
                   [
                     ("value", Obs.Json.Float (List.assoc dl.name o.values));
                     ("unit", Obs.Json.Str dl.unit);
                   ] ))
             (decls ~trace)) );
    ]

(* What one invocation asks of a workload. *)
type ctx = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;
  inject_failure : bool;  (** force one operation to fail (tests only) *)
}

(* Set-ups per run: [setup_s] is their median. *)
let setups = 3

(* Values every workload derives the same way from its per-operation
   simulated latencies (us). For one-shot requests the response is the
   first and only output, so TTFT and TPOT are the request latency. *)
let latency_values ~(lat : float array) ~p999 =
  let q = Stat.quantile lat in
  [
    ("p50_us", q 0.5);
    ("p999_us", p999);
    ("ttft_p50_us", q 0.5);
    ("ttft_p99_us", q 0.99);
    ("tpot_p99_us", q 0.99);
  ]
