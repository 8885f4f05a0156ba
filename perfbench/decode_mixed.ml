(* decode-mixed: the E20b traffic (diurnal, bursts and drift, mapped to
   prompt and generation lengths) through [Decode.Scheduler] continuous
   batching with gpt2 tiny on 4 A10 workers and a Linear 8 KV-cache
   ladder. The only workload where the decode token-step loop does the
   work. The base rate is 3000 qps, not E20b's 4000: there, bursts drive
   the single prefill worker to its limit and the TTFT tail swings by
   half from seed to seed. *)

module S = Decode.Scheduler
module Trace_gen = Serving.Trace_gen
module Bucket = Serving.Bucket
module Common = Models.Common

let a10 = Gpusim.Device.a10
let prefill () = Models.Gpt2.build ~config:Models.Gpt2.tiny ()
let decode () = Models.Gpt2.build_decode ~config:Models.Gpt2.tiny ()
let base_qps = 3000.0

let config =
  { (S.default_config ~devices:(List.init 4 (fun _ -> a10))) with S.cache_scheme = Bucket.Linear 8 }

(* [steady]: the capacity probe's traffic (see [Serve.steady_of]). *)
let traffic ?(steady = false) ~seed ~qps ~n () =
  let seq_ub = S.dim_bound (prefill ()) "seq" and cache_ub = S.dim_bound (decode ()) "cache" in
  let spec =
    Trace_gen.mixed ~seed ~qps
      ~dims_a:[ ("prompt", Workloads.Trace.Skewed (4, 16)); ("new", Workloads.Trace.Uniform (4, 12)) ]
      ~dims_b:[ ("prompt", Workloads.Trace.Bimodal (4, 16)); ("new", Workloads.Trace.Uniform (2, 8)) ]
      ()
  in
  let spec = if steady then Serve.steady_of spec else spec in
  S.of_pool_requests ~seq_ub ~cache_ub (Trace_gen.generate spec ~n)

(* A run that raises leaves every sequence unfinished. *)
let run_scheduler ~cache reqs =
  match S.run ~cache ~prefill ~decode config reqs with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let slo_attainment (r : S.report) = float_of_int r.S.ttft_ok /. float_of_int r.S.sequences

(* Arrival to last token, per sequence in arrival order (seq ids index
   the request list; every sequence finishes, or the gate fails). *)
let latencies (reqs : S.request array) (r : S.report) =
  let lat = Array.make (Array.length reqs) 0.0 in
  List.iter (fun (id, _, finish, _) -> lat.(id) <- finish -. reqs.(id).S.arrival_us) r.S.seq_log;
  lat

(* [n] (prefill, decode-step) env pairs spread evenly over the seed's
   trace: requests at evenly spaced ranks of their sorted (prompt,
   max_new) order, the decode step half way through generation, batch
   sizes cycling through each phase's range, all on the scheduler's
   rungs. *)
let sample_envs (reqs : S.request list) n =
  let sorted =
    Array.of_list (List.sort compare (List.map (fun (r : S.request) -> (r.S.prompt, r.S.max_new)) reqs))
  in
  let len = Array.length sorted in
  let seq_ub = S.dim_bound (prefill ()) "seq" and cache_ub = S.dim_bound (decode ()) "cache" in
  let rung scheme ub v = min ub (Bucket.round_up scheme v) in
  let batch cap i = Bucket.round_up config.S.batch_scheme (1 + (i mod cap)) in
  List.init n (fun i ->
      let prompt, max_new = sorted.(((2 * i) + 1) * len / (2 * n)) in
      ( [ ("batch", batch config.S.max_prefill_batch i); ("seq", rung config.S.prompt_scheme seq_ub prompt) ],
        [
          ("batch", batch config.S.max_decode_batch i);
          ("cache", rung config.S.cache_scheme cache_ub (prompt + ((max_new + 1) / 2)));
        ] ))

let med xs = Stat.median (Array.of_list xs)

(* One timed repetition, without the report it produced. *)
type rep = {
  traced : bool;
  run_s : float;
  alloc : float;
  digest : string;
  failed : int;  (** sequences left unfinished *)
  violations : string list;
}

let run ?(sequences = 120_000) ?(probe_requests = 40_000) (ctx : Metric.ctx) :
    Metric.outcome =
  let (reqs, cache), setup_s, _ =
    Stat.setups Metric.setups (fun () ->
        let reqs = traffic ~seed:ctx.seed ~qps:base_qps ~n:sequences () in
        let reqs =
          if ctx.inject_failure then
            (* a sequence longer than the KV cache: the run must refuse it *)
            { (List.hd reqs) with S.max_new = S.dim_bound (decode ()) "cache" } :: List.tl reqs
          else reqs
        in
        let cache = Disc.Compile_cache.create () in
        ignore (run_scheduler ~cache (List.filteri (fun i _ -> i < sequences / 8) reqs));
        (reqs, cache))
  in
  let n = List.length reqs in
  let compile_ms, compile_mb = Serve.compile_cost ~per_rep:8 [ prefill; decode ] in
  let first = ref None in
  let reps =
    Stat.repeat ~min_reps:(if ctx.trace then 4 else 3) ~seconds:ctx.seconds (fun i ->
        let traced = ctx.trace && i mod 2 = 0 in
        Span.on := traced;
        let t =
          Stat.timed (fun () ->
              Span.record ~id:(string_of_int i) "decode.run" (fun () -> run_scheduler ~cache reqs))
        in
        Span.on := false;
        let run_s = t.Stat.secs and alloc = t.Stat.alloc in
        match t.Stat.value with
        | Error e ->
            { traced; run_s; alloc; digest = ""; failed = n; violations = [ "Decode.Scheduler.run raised " ^ e ] }
        | Ok r ->
            if i = 0 then first := Some r;
            let violations =
              (if r.S.finished <> n then [ Printf.sprintf "finished %d of %d" r.S.finished n ] else [])
              @ match Decode.Audit.check r with Ok () -> [] | Error vs -> vs
            in
            { traced; run_s; alloc; digest = S.digest r; failed = n - r.S.finished; violations })
  in
  let r0 = List.hd reps in
  let failed = List.fold_left (fun a rp -> a + rp.failed) 0 reps in
  let errors =
    List.concat_map (fun rp -> rp.violations) reps
    @ if List.exists (fun rp -> rp.digest <> r0.digest) reps
      then [ "token schedules differ between repetitions" ] else []
  in
  let values =
    match (errors, !first) with
    | [], Some r ->
        let envs = sample_envs reqs 128 in
        let pb = prefill () and db = decode () in
        let pexe = (Disc.Compiler.compile pb.Common.graph).Disc.Compiler.exe
        and dexe = (Disc.Compiler.compile db.Common.graph).Disc.Compiler.exe in
        let bnds =
          List.concat_map
            (fun (p, d) -> [ (pexe, Common.binding_for pb p); (dexe, Common.binding_for db d) ])
            envs
        in
        let sim (exe, b) = Runtime.Executable.simulate ~device:a10 exe b in
        let run_ms l = med (List.map (fun rp -> 1000.0 *. rp.run_s) l) in
        if not ctx.trace then begin
          let lat = latencies (Array.of_list reqs) r in
          let prefix = traffic ~steady:true ~seed:ctx.seed ~qps:base_qps ~n:probe_requests () in
          let passes m =
            let reqs = List.map (fun (q : S.request) -> { q with S.arrival_us = q.S.arrival_us /. m }) prefix in
            let last = List.fold_left (fun _ (q : S.request) -> q.S.arrival_us) 0.0 reqs in
            match run_scheduler ~cache reqs with
            | Ok r ->
                slo_attainment r >= Serve.slo_target
                && r.S.finished = r.S.sequences
                && r.S.makespan_us -. last <= Serve.drain_us
            | Error _ -> false
          in
          [
            ("setup_s", setup_s);
            ("compile_ms", compile_ms);
            ("compile_alloc_mb", compile_mb);
            ( "device_us_geomean",
              Stat.geomean (Array.of_list (List.map (fun x -> Runtime.Profile.total_us (sim x)) bnds)) );
            ("host_rps", float_of_int n /. med (List.map (fun rp -> rp.run_s) reps));
            ("alloc_b_per_req", r0.alloc /. float_of_int n);
            ("slo_attainment", slo_attainment r);
            ("capacity_rps", Serve.capacity ~passes ~base_qps);
            ("tokens_per_s", r.S.tokens_per_s);
            ("p50_us", Stat.quantile lat 0.5);
            ("p999_us", Stat.windowed_quantile ~windows:10 lat 0.999);
            ("ttft_p50_us", r.S.ttft_p50_us);
            ("ttft_p99_us", r.S.ttft_p99_us);
            ("tpot_p99_us", r.S.tpot_p99_us);
          ]
        end
        else begin
          let traced = List.filter (fun rp -> rp.traced) reps in
          let untraced = List.filter (fun rp -> not rp.traced) reps in
          let pest = Mem.Estimate.of_executable pexe and dest = Mem.Estimate.of_executable dexe in
          List.map
            (fun (d : Metric.decl) ->
              ( d.name,
                match d.name with
                | "decode.run_ms" | "trace.total_ms" -> run_ms traced
                | "decode.steps" -> float_of_int r.S.decode_steps
                | "decode.prefill_batches" -> float_of_int r.S.prefill_batches
                | "decode.mean_batch" -> r.S.mean_decode_batch
                | "decode.slot_waste" -> r.S.decode_slot_waste
                | "decode.warm_rate" -> r.S.warm_rate
                | "decode.signatures" -> float_of_int r.S.signatures
                | "decode.cold_dispatches" -> float_of_int r.S.cold_dispatches
                | "runtime.simulate_us" -> Serve.unit_cost_us (fun x -> ignore (sim x)) bnds
                | "mem.peak_bound_us" ->
                    Serve.unit_cost_us
                      (fun (exe, b) -> ignore (Mem.Estimate.peak_bound (if exe == pexe then pest else dest) b))
                      bnds
                | "trace.overhead_ms" -> run_ms traced -. run_ms untraced
                | _ -> 0.0 ))
            Metric.per_layer
        end
    | _ -> []
  in
  { Metric.attempted = n * List.length reps; failed; errors; values }
