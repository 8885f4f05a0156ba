(* serve-drift and serve-exact: one open-loop trace (virtual time)
   through [Serving.Pool.run], on the hit path and the miss path of the
   session's profile memo respectively.

   A timed repetition runs the trace on a fresh pool that shares the
   set-up's compile cache, so every repetition starts from the same
   state and must produce the same dispositions and latencies. *)

module Pool = Serving.Pool
module Bucket = Serving.Bucket
module Trace_gen = Serving.Trace_gen
module Slo = Serving.Slo
module Common = Models.Common

type spec = {
  model : unit -> Common.built;
  replicas : int;
  max_batch : int;
  bucket : Bucket.spec;
  hbm_aware : bool;  (** A10 HBM budget with the memory-aware gate *)
  base_qps : float;
  requests : int;  (** per timed repetition *)
  probe_requests : int;  (** length of the capacity probe trace *)
  compiles_per_rep : int;  (** compiles per timed section of [compile_ms] *)
  traffic : seed:int -> qps:float -> Trace_gen.spec;
}

let a10 = Gpusim.Device.a10

(* Few shape signatures: Pow2 buckets over [hist] make nearly every
   batch a profile-memo hit, so host time goes to the event loop. *)
let drift =
  {
    model = (fun () -> (Models.Suite.find "dien").Models.Suite.build_tiny ());
    replicas = 4;
    max_batch = 16;
    bucket = [ ("hist", Bucket.Pow2) ];
    hbm_aware = false;
    base_qps = 4000.0;
    requests = 100_000;
    probe_requests = 100_000;
    compiles_per_rep = 128;
    traffic =
      (fun ~seed ~qps ->
        Trace_gen.mixed ~seed ~qps
          ~dims_a:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
          ~dims_b:[ ("hist", Workloads.Trace.Bimodal (8, 96)) ]
          ());
  }

(* Thousands of exact (batch, seq) signatures overflow the session's
   4096-entry memo, so nearly every batch runs the cost model and the
   memory admission gate. *)
let exact =
  {
    model = (fun () -> (Models.Suite.find "bert").Models.Suite.build ());
    replicas = 4;
    max_batch = 8;
    bucket = [ ("seq", Bucket.Exact) ];
    hbm_aware = true;
    base_qps = 400.0;
    requests = 20_000;
    probe_requests = 5_000;
    compiles_per_rep = 1;
    traffic =
      (fun ~seed ~qps ->
        Trace_gen.steady ~seed ~qps ~dims:[ ("seq", Workloads.Trace.Uniform (1, 512)) ] ());
  }

let config s =
  {
    (Pool.default_config
       ~devices:(List.init s.replicas (fun _ -> a10))
       ~batch_dim:"batch" ~bucket:s.bucket)
    with
    Pool.max_batch = s.max_batch;
    hbm_budget = (if s.hbm_aware then Some a10.Gpusim.Device.memory_bytes else None);
    mem_aware = s.hbm_aware;
  }

let failures (r : Pool.report) = r.Pool.shed + r.expired + r.rejected + r.failed + r.lost

let slo_attainment (r : Pool.report) =
  let met = List.fold_left (fun a c -> a + c.Pool.cr_slo_met) 0 r.Pool.classes in
  float_of_int met /. float_of_int (Array.length r.Pool.dispositions)

let digest (r : Pool.report) =
  Digest.to_hex (Digest.string (Marshal.to_string (r.Pool.dispositions, r.latencies_us) []))

let last_arrival (reqs : Pool.request list) =
  List.fold_left (fun _ (r : Pool.request) -> r.Pool.arrival_us) 0.0 reqs

(* The workload's traffic without its rate swings: the same segments,
   shape mixes and classes, at the constant base rate. *)
let steady_of (sp : Trace_gen.spec) =
  {
    sp with
    Trace_gen.segments =
      List.map (fun g -> { g with Trace_gen.diurnal = 0.0; burst = None }) sp.Trace_gen.segments;
  }

(* Capacity: the highest rung of the ladder of multiples 1.05^j of the
   base rate (j = -28 .. 63) at which a probe trace, its arrival times
   divided by the multiple, keeps [slo_target] with no growing backlog
   (the run drains within [drain_us] of its last arrival). The probe is
   the workload's traffic made steady ([steady_of]), from the same seed:
   sustained capacity is a property of the shapes and the rate, and the
   tallest burst a seed happens to draw would otherwise decide it.
   Compressing one trace keeps the same shapes at every rung, so
   pass/fail moves with the rate alone; it is taken as monotone, and the
   search gallops up from the base rung, then bisects. *)
let ladder = Array.init 92 (fun k -> 1.05 ** float_of_int (k - 28))
let base_rung = 28
let slo_target = 0.999
let drain_us = (Slo.target_of Slo.default_policy Slo.Standard).Slo.deadline_us

let capacity ~passes ~base_qps =
  let n = Array.length ladder in
  let ok k = passes ladder.(k) in
  (* rung lo passes (or lo = -1), rung hi fails (or hi = n) *)
  let rec bisect lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if ok mid then bisect mid hi else bisect lo mid
  in
  let rec gallop lo step =
    let k = lo + step in
    if k >= n then bisect lo n else if ok k then gallop k (2 * step) else bisect lo k
  in
  let k = if ok base_rung then gallop base_rung 1 else bisect (-1) base_rung in
  if k < 0 then 0.0 else base_qps *. ladder.(k)

(* [n] dispatch envs spread evenly over the seed's trace: the bucketed
   request dims at evenly spaced ranks of their sorted order, with the
   batch size cycling through 1..max_batch. *)
let sample_envs s (reqs : Pool.request list) n =
  let dims =
    Array.of_list (List.sort compare (List.map (fun (r : Pool.request) -> Bucket.bucket_dims s.bucket r.Pool.dims) reqs))
  in
  let len = Array.length dims in
  List.init n (fun i -> ("batch", 1 + (i mod s.max_batch)) :: dims.(((2 * i) + 1) * len / (2 * n)))

(* Per-call host cost of [f] over the sample, us: median over passes. *)
let unit_cost_us f sample =
  let n = float_of_int (List.length sample) in
  let passes =
    List.init 9 (fun _ ->
        1e6 *. (Stat.timed (fun () -> List.iter f sample)).Stat.secs /. n)
  in
  Stat.median (Array.of_list passes)

let med xs = Stat.median (Array.of_list xs)

(* Host cost (ms, MB) of compiling the workload's graphs once:
   [Disc.Compiler.compile] then [Mem.Estimate.of_executable] per graph.
   Time is the median over 21 repetitions of [per_rep] back-to-back
   compiles, so each timed section is long enough to time; allocation is
   the first repetition's, as every run reaches it in the same state. *)
let compile_cost ~per_rep models =
  let reps =
    List.init 21 (fun _ ->
        let builts = List.init per_rep (fun _ -> List.map (fun m -> m ()) models) in
        let t =
          Stat.timed (fun () ->
              List.iter
                (List.iter (fun (b : Common.built) ->
                     ignore
                       (Mem.Estimate.of_executable
                          (Disc.Compiler.compile b.Common.graph).Disc.Compiler.exe)))
                builts)
        in
        let k = float_of_int per_rep in
        (1000.0 *. t.Stat.secs /. k, t.Stat.alloc /. 1e6 /. k))
  in
  (med (List.map fst reps), snd (List.hd reps))

(* One timed repetition, without the report it produced: keeping every
   report alive would grow the heap with the number of repetitions. *)
type rep = {
  traced : bool;
  create_s : float;  (** [Pool.create], outside the timed section *)
  run_s : float;  (** [Pool.run] *)
  alloc : float;
  digest : string;
  failed : int;
  violations : string list;
}

let run s (ctx : Metric.ctx) : Metric.outcome =
  let cfg = config s in
  let cfg =
    if ctx.inject_failure then
      (* every class at queue bound 0: admission sheds every arrival *)
      { cfg with Pool.slo = List.map (fun (c, t) -> (c, { t with Slo.queue_bound = 0 })) cfg.Pool.slo }
    else cfg
  in
  let (reqs, cache, _), setup_s, setups =
    Stat.setups Metric.setups (fun () ->
        let t0 = Unix.gettimeofday () in
        let reqs = Trace_gen.generate (s.traffic ~seed:ctx.seed ~qps:s.base_qps) ~n:s.requests in
        let gen_s = Unix.gettimeofday () -. t0 in
        let cache = Disc.Compile_cache.create () in
        let pool = Pool.create ~cache cfg s.model in
        ignore (Pool.run pool (List.filteri (fun i _ -> i < s.requests / 8) reqs));
        (reqs, cache, gen_s))
  in
  let n = List.length reqs in
  let compile_ms, compile_mb = compile_cost ~per_rep:s.compiles_per_rep [ s.model ] in
  let first = ref None in
  let reps =
    Stat.repeat ~min_reps:(if ctx.trace then 4 else 3) ~seconds:ctx.seconds (fun i ->
        let traced = ctx.trace && i mod 2 = 0 in
        let t0 = Unix.gettimeofday () in
        let pool = Pool.create ~cache cfg s.model in
        let create_s = Unix.gettimeofday () -. t0 in
        Span.on := traced;
        let t =
          Stat.timed (fun () ->
              Span.record ~id:(string_of_int i) "serving.pool_run" (fun () -> Pool.run pool reqs))
        in
        Span.on := false;
        let r = t.Stat.value and create_s = t.Stat.scale *. create_s in
        if i = 0 then first := Some r;
        let violations = Serving.Audit.check r @ if r.Pool.lost > 0 then [ Printf.sprintf "lost=%d" r.Pool.lost ] else [] in
        { traced; create_s; run_s = t.Stat.secs; alloc = t.Stat.alloc; digest = digest r; failed = failures r; violations })
  in
  let r = Option.get !first and r0 = List.hd reps in
  let errors =
    List.concat_map (fun rp -> rp.violations) reps
    @ if List.exists (fun rp -> rp.digest <> r0.digest) reps
      then [ "dispositions or latencies differ between repetitions" ] else []
  in
  let attempted = n * List.length reps in
  let failed = List.fold_left (fun a rp -> a + rp.failed) 0 reps in
  let envs = sample_envs s reqs 256 in
  let built = s.model () in
  let exe = (Disc.Compiler.compile built.Common.graph).Disc.Compiler.exe in
  let bnds = List.map (Common.binding_for built) envs in
  let run_ms l = med (List.map (fun rp -> 1000.0 *. rp.run_s) l) in
  let values =
    if errors <> [] || ctx.inject_failure then []
    else if not ctx.trace then begin
      let lat = Pool.completed_latencies r in
      let prefix =
        Trace_gen.generate (steady_of (s.traffic ~seed:ctx.seed ~qps:s.base_qps)) ~n:s.probe_requests
      in
      let passes m =
        let reqs = List.map (fun (q : Pool.request) -> { q with Pool.arrival_us = q.Pool.arrival_us /. m }) prefix in
        let r = Pool.run (Pool.create ~cache cfg s.model) reqs in
        slo_attainment r >= slo_target && r.Pool.makespan_us -. last_arrival reqs <= drain_us
      in
      let completed = r.Pool.served + r.Pool.fell_back in
      [
        ("setup_s", setup_s);
        ("compile_ms", compile_ms);
        ("compile_alloc_mb", compile_mb);
        ( "device_us_geomean",
          Stat.geomean
            (Array.of_list
               (List.map (fun b -> Runtime.Profile.total_us (Runtime.Executable.simulate ~device:a10 exe b)) bnds)) );
        ("host_rps", float_of_int n /. med (List.map (fun rp -> rp.run_s) reps));
        ("alloc_b_per_req", r0.alloc /. float_of_int n);
        ("slo_attainment", slo_attainment r);
        ("capacity_rps", capacity ~passes ~base_qps:s.base_qps);
        ("tokens_per_s", float_of_int completed /. (r.Pool.makespan_us /. 1e6));
      ]
      @ Metric.latency_values ~lat ~p999:(Pool.percentile lat 0.999)
    end
    else begin
      let traced = List.filter (fun rp -> rp.traced) reps in
      let untraced = List.filter (fun rp -> not rp.traced) reps in
      let busy = List.fold_left (fun a rr -> a +. rr.Pool.rr_busy_us) 0.0 r.Pool.replicas in
      let signatures =
        List.sort_uniq compare (List.map (fun (q : Pool.request) -> Bucket.key_of s.bucket q.Pool.dims) reqs)
      in
      let est = Mem.Estimate.of_executable exe in
      List.map
        (fun (d : Metric.decl) ->
          ( d.name,
            match d.name with
            | "serving.trace_gen_ms" ->
                1000.0 *. Stat.median_of (fun t -> let _, _, g = t.Stat.value in t.Stat.scale *. g) setups
            | "serving.pool_create_ms" -> 1000.0 *. med (List.map (fun rp -> rp.create_s) reps)
            | "serving.pool_run_ms" | "trace.total_ms" -> run_ms traced
            | "serving.batches" -> float_of_int r.Pool.batches
            | "serving.mean_batch" -> r.Pool.mean_batch
            | "serving.padding_waste" -> Pool.padding_waste r
            | "serving.cold_dispatches" -> float_of_int r.Pool.cold_dispatches
            | "serving.peak_queued" -> float_of_int r.Pool.peak_queued
            | "serving.replica_busy_share" ->
                busy /. (float_of_int (List.length r.Pool.replicas) *. r.Pool.makespan_us)
            | "serving.distinct_signatures" -> float_of_int (List.length signatures)
            | "runtime.simulate_us" ->
                unit_cost_us (fun b -> ignore (Runtime.Executable.simulate ~device:a10 exe b)) bnds
            | "mem.peak_bound_us" -> unit_cost_us (fun b -> ignore (Mem.Estimate.peak_bound est b)) bnds
            | "trace.overhead_ms" -> run_ms traced -. run_ms untraced
            | _ -> 0.0 ))
        Metric.per_layer
    end
  in
  { Metric.attempted; failed; errors; values }
