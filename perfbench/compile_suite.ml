(* compile-suite: the ten paper-scale suite models compiled, estimated,
   tuned and simulated back to back (closed loop, one model at a time).
   No serving code runs, so compiler changes show here and nowhere else.

   One round, per model: [Disc.Compiler.compile] (traced: its passes,
   verify, fusion planning and executable build called one by one),
   [Mem.Estimate.of_executable], [Tune.Search.plan] on A10 at the
   model's E1 [bench_dims] rungs, [Tune.Plan.apply], then
   [Runtime.Executable.simulate] of the tuned executable over the seed's
   E1 grid: every [bench_dims] env in [variants] copies, each dim moved
   down by a seeded amount of up to an eighth. *)

module Suite = Models.Suite
module Common = Models.Common
module Executable = Runtime.Executable
module Profile = Runtime.Profile

let device = Gpusim.Device.a10
let variants = 8

let grid ~seed (e : Suite.entry) =
  let rng = Workloads.Trace.create_rng ((seed * 7919) + Hashtbl.hash e.Suite.name) in
  List.concat_map
    (fun env ->
      List.init variants (fun _ ->
          List.map (fun (k, v) -> (k, v - Workloads.Trace.uniform rng 0 (v / 8))) env))
    e.Suite.bench_dims

type model_round = {
  insts : int;
  kernels : int;
  illegal : int;
  lat : float array;  (** simulated A10 latency per grid request, us *)
  launches : int;
  bytes : int;
  sim_s : float;  (** raw host seconds *)
  sim_alloc : float;
}

let compile ~trace ~id (built : Common.built) =
  let g = built.Common.graph in
  if not trace then (Disc.Compiler.compile g).Disc.Compiler.exe
  else begin
    let o = Disc.Compiler.default_options in
    ignore (Span.record ~id "ir.passes" (fun () -> Ir.Passes.run_all g));
    Span.record ~id "ir.verify" (fun () -> Ir.Graph.verify g);
    let plan =
      Span.record ~id "fusion.plan" (fun () -> Fusion.Planner.plan ~config:o.planner g)
    in
    Span.record ~id "codegen.build" (fun () ->
        Executable.compile ~codegen:o.codegen ~host_overhead_us:o.host_overhead_us g plan)
  end

let illegal_versions exe plan =
  List.fold_left
    (fun acc item ->
      match item with
      | Executable.Fused k -> (
          match Tune.Plan.find plan k.Codegen.Kernel.name with
          | Some e ->
              acc
              + List.length
                  (List.filter
                     (fun v ->
                       not
                         (Tune.Space.validate device ~has_reduce:k.Codegen.Kernel.has_reduce
                            ~kind:k.Codegen.Kernel.cluster.Fusion.Cluster.kind v))
                     e.Tune.Plan.versions)
          | None -> acc)
      | Executable.Lib _ -> acc)
    0 exe.Executable.items

let model_round ~trace (e : Suite.entry) grid (built : Common.built) =
  let id = e.Suite.name in
  let exe = compile ~trace ~id built in
  ignore (Span.record ~id "mem.estimate" (fun () -> Mem.Estimate.of_executable exe));
  let plan =
    Span.record ~id "tune.search" (fun () ->
        let rungs =
          List.map
            (fun env -> { Tune.Search.env; bnd = Common.binding_for built env })
            e.Suite.bench_dims
        in
        Tune.Search.plan ~device ~rungs exe)
  in
  let tuned = Span.record ~id "tune.apply" (fun () -> Tune.Plan.apply plan exe) in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let profiles =
    Span.record ~id "runtime.simulate" (fun () ->
        List.map
          (fun env -> Executable.simulate ~device tuned (Common.binding_for built env))
          grid)
  in
  let sim_s = Unix.gettimeofday () -. t0 in
  let sim_alloc = Gc.allocated_bytes () -. a0 in
  {
    insts = Ir.Graph.num_insts exe.Executable.g;
    kernels = Executable.num_kernels exe;
    illegal = illegal_versions exe plan;
    lat = Array.of_list (List.map Profile.total_us profiles);
    launches = List.fold_left (fun acc p -> acc + p.Profile.launches) 0 profiles;
    bytes = List.fold_left (fun acc p -> acc + p.Profile.bytes_moved) 0 profiles;
    sim_s;
    sim_alloc;
  }

(* The compiled tiny model against the reference interpreter at its
   [tiny_dims]. The injected failure feeds the compiled side inputs drawn
   with another seed, which the check must catch. *)
let interp_check ~inject (e : Suite.entry) =
  let built = e.Suite.build_tiny () in
  let inputs = Common.test_inputs built e.Suite.tiny_dims in
  let expected = Ir.Interp.run built.Common.graph inputs in
  let c = Disc.Compiler.compile built.Common.graph in
  let inputs = if inject then Common.test_inputs ~seed:99 built e.Suite.tiny_dims else inputs in
  let outs, _ = Disc.Compiler.run ~device c inputs in
  List.length outs = List.length expected
  && List.for_all2 (Tensor.Nd.equal_approx ~eps:1e-5) expected outs

type round = { models : model_round list; failures : string list }

(* Everything of a round that must repeat exactly. *)
let simulated r =
  List.map (fun m -> (m.insts, m.kernels, m.illegal, m.lat, m.launches, m.bytes)) r.models

let round ~trace entries grids =
  (* graphs are mutated by compilation, so every round builds afresh,
     outside the timed section *)
  let builts = List.map (fun (e : Suite.entry) -> e.Suite.build ()) entries in
  let t =
    Stat.timed (fun () ->
        List.fold_left2
          (fun (ms, fs) (e, grid) built ->
            Span.record ~id:e.Suite.name "round.model" (fun () ->
                match model_round ~trace e grid built with
                | m -> (m :: ms, fs)
                | exception ex ->
                    (ms, Printf.sprintf "%s: %s" e.Suite.name (Printexc.to_string ex) :: fs)))
          ([], []) (List.combine entries grids) builts)
  in
  let ms, fs = t.Stat.value in
  { t with Stat.value = { models = List.rev ms; failures = List.rev fs } }

(* The compiler layers whose spans a traced round times; everything else
   in the round ([ir.verify], [tune.apply], the benchmark's own glue) is
   reported as unattributed. *)
let layers = [ "ir.passes"; "fusion.plan"; "codegen.build"; "mem.estimate"; "tune.search"; "runtime.simulate" ]

type rep = {
  traced : bool;
  round : round Stat.timed;
  self : (string * (float * float)) list;  (** per span name: self ms (scaled), self bytes *)
}

let run ?(entries = Suite.all) (ctx : Metric.ctx) : Metric.outcome =
  let n_models = List.length entries in
  let grids, setup_s, _ =
    Stat.setups Metric.setups (fun () ->
        let grids = List.map (grid ~seed:ctx.seed) entries in
        ignore (round ~trace:false entries grids);
        grids)
  in
  (* traced runs alternate traced and untraced rounds: the difference of
     their medians is the tracing overhead *)
  let rounds =
    Stat.repeat ~min_reps:(if ctx.trace then 4 else 3) ~seconds:ctx.seconds (fun i ->
        let traced = ctx.trace && i mod 2 = 0 in
        Span.on := traced;
        let mark = Span.mark () in
        let round = round ~trace:traced entries grids in
        Span.on := false;
        let self =
          if not traced then []
          else List.map (fun (k, (ms, b)) -> (k, (round.Stat.scale *. ms, b))) (Span.self_since mark)
        in
        { traced; round; self })
  in
  let interp_failed =
    List.filteri (fun i e -> not (interp_check ~inject:(ctx.inject_failure && i = 0) e)) entries
    |> List.map (fun (e : Suite.entry) -> e.Suite.name ^ ": compiled output differs from Ir.Interp")
  in
  let compile_failed = List.concat_map (fun t -> t.round.Stat.value.failures) rounds in
  let t0 = List.hd rounds in
  let first = t0.round.Stat.value in
  let sum f = List.fold_left (fun a m -> a + f m) 0 first.models in
  let errors =
    compile_failed @ interp_failed
    @ (if List.exists (fun t -> simulated t.round.Stat.value <> simulated first) rounds
       then [ "simulated results differ between rounds" ] else [])
    @ match sum (fun m -> m.illegal) with
      | 0 -> []
      | k -> [ Printf.sprintf "%d tuned versions fail Tune.Space.validate" k ]
  in
  let lat = Array.concat (List.map (fun m -> m.lat) first.models) in
  let n_req = float_of_int (Array.length lat) in
  let med = Stat.median_of in
  let round_ms t = 1000.0 *. t.round.Stat.secs in
  let sim_sum f r = List.fold_left (fun a m -> a +. f m) 0.0 r.models in
  let values =
    if errors <> [] then []
    else if not ctx.trace then begin
      let slo = (Serving.Slo.target_of Serving.Slo.default_policy Serving.Slo.Standard).deadline_us in
      let capacity = n_req /. Array.fold_left ( +. ) 0.0 lat *. 1e6 in
      [
        ("setup_s", setup_s);
        ("compile_ms", med round_ms rounds);
        ("compile_alloc_mb", t0.round.Stat.alloc /. 1e6);
        ("device_us_geomean", Stat.geomean lat);
        ( "host_rps",
          med (fun t -> n_req /. (t.round.Stat.scale *. sim_sum (fun m -> m.sim_s) t.round.Stat.value)) rounds );
        ("alloc_b_per_req", sim_sum (fun m -> m.sim_alloc) first /. n_req);
        ("slo_attainment", Array.fold_left (fun a l -> if l <= slo then a +. 1.0 else a) 0.0 lat /. n_req);
        ("capacity_rps", capacity);
        ("tokens_per_s", capacity);
      ]
      @ Metric.latency_values ~lat ~p999:(Stat.quantile lat 0.999)
    end
    else begin
      let traced = List.filter (fun t -> t.traced) rounds in
      let untraced = List.filter (fun t -> not t.traced) rounds in
      let self t name = Option.value ~default:(0.0, 0.0) (List.assoc_opt name t.self) in
      let layer_ms t = List.fold_left (fun a l -> a +. fst (self t l)) 0.0 layers in
      let per_layer =
        List.map (fun l -> (l ^ "_ms", med (fun t -> fst (self t l)) traced)) layers
        @ List.map
            (fun l -> (l ^ "_alloc_mb", snd (self (List.hd traced) l) /. 1e6))
            [ "ir.passes"; "fusion.plan"; "tune.search" ]
        @ [
            ("ir.insts", float_of_int (sum (fun m -> m.insts)));
            ("fusion.kernels", float_of_int (sum (fun m -> m.kernels)));
            ("gpusim.launches", float_of_int (sum (fun m -> m.launches)));
            ("gpusim.bytes_moved_mb", float_of_int (sum (fun m -> m.bytes)) /. 1e6);
            ("tune.illegal", float_of_int (sum (fun m -> m.illegal)));
            ("trace.total_ms", med round_ms traced);
            ("trace.overhead_ms", med round_ms traced -. med round_ms untraced);
            ("trace.unattributed_ms", med (fun t -> round_ms t -. layer_ms t) traced);
          ]
      in
      List.map
        (fun (d : Metric.decl) -> (d.name, Option.value ~default:0.0 (List.assoc_opt d.name per_layer)))
        Metric.per_layer
    end
  in
  { Metric.attempted = n_models * List.length rounds; failed = List.length compile_failed + List.length interp_failed; errors; values }
