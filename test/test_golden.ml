(* Golden-output tests: exact expected text for the printer, the kernel
   emitter, the fusion plan and cost figures on small fixed programs.
   These pin the user-visible surfaces against accidental drift. *)

module Sym = Symshape.Sym
module Table = Symshape.Table
module Graph = Ir.Graph
module B = Ir.Builder
module Dtype = Tensor.Dtype
module Planner = Fusion.Planner

let check_string = Alcotest.(check string)

let scaled_exp_graph () =
  let g = Graph.create () in
  let tab = Graph.symtab g in
  let s = Table.fresh ~lb:1 ~ub:128 ~likely:[ 16 ] tab in
  let x = B.param g ~name:"x" [| s; Sym.Static 4 |] Dtype.F32 in
  let y = B.exp g (B.mulf g x 2.0) in
  Graph.set_outputs g [ y ];
  (g, s)

let test_printer_golden () =
  let g, _ = scaled_exp_graph () in
  check_string "printed program"
    "graph {\n\
    \  sym s0 lb=1 ub=128 likely=16\n\
    \  %0 : f32[s0x4] = parameter(0, \"x\")()\n\
    \  %1 : f32[] = constant(f32[]{2})()\n\
    \  %2 : f32[s0x4] = mul(%0, %1)\n\
    \  %3 : f32[s0x4] = exp(%2)\n\
    \  return %3\n\
     }\n"
    (Ir.Printer.to_string ~with_symbols:true g)

let test_plan_golden () =
  let g, _ = scaled_exp_graph () in
  let plan = Planner.plan g in
  check_string "plan dump"
    "cluster 3 [kLoop] domain=[s0x4] members={2,3} inputs={0,1} outputs={3}\n"
    (Fusion.Cluster.to_string plan)

let test_emit_golden () =
  let g, _ = scaled_exp_graph () in
  let plan = Planner.plan g in
  let c = List.hd plan.Fusion.Cluster.clusters in
  let k = Codegen.Kernel.build g Codegen.Kernel.no_speculation_config c in
  check_string "emitted kernel"
    "// kernel_3_kLoop (kLoop)\n\
     // version generic            guards: always\n\
     __global__ void kernel_3_kLoop(const float* v0, const float* v1, float* out_v3, \
     const int64_t* dims) {\n\
    \  int64_t numel = dims[0] * 4;\n\
    \  for (int64_t idx = blockIdx.x * blockDim.x + threadIdx.x;\n\
    \       idx < numel; idx += gridDim.x * blockDim.x) {\n\
    \    float v2 = v0 * v1;\n\
    \    float v3 = __expf(v2);\n\
    \    out_v3[idx] = v3;\n\
    \  }\n\
     }\n"
    (Codegen.Emit.emit g k)

let test_cost_golden () =
  (* exact cost arithmetic for a fixed kernel on the A10 profile *)
  let w =
    {
      Gpusim.Cost.default_work with
      Gpusim.Cost.bytes_read = 510_000; (* 1 us at 600 GB/s x 0.85 *)
      bytes_written = 0;
      blocks = 100_000;
    }
  in
  Alcotest.(check (float 1e-9)) "mem time" 1.0 (Gpusim.Cost.mem_time_us Gpusim.Device.a10 w);
  Alcotest.(check (float 1e-6)) "kernel time = launch + tail + body"
    (3.5 +. 1.2 +. 1.0)
    (Gpusim.Cost.kernel_time_us Gpusim.Device.a10 w)

let test_profile_string_golden () =
  let p = Runtime.Profile.create () in
  Runtime.Profile.add p ~kname:"k" ~kind:"kLoop" ~version_tag:"generic" ~time_us:10.0
    ~host_us:0.5 ~bytes:2_000_000 ~flops:1.0;
  Runtime.Profile.note_live_bytes p 3_000_000;
  check_string "profile summary"
    "total=10.5us (device=10.0 host=0.5) launches=1 bytes=2.00MB peak=3.00MB"
    (Runtime.Profile.to_string p)

let test_stats_string_golden () =
  let g, _ = scaled_exp_graph () in
  check_string "coverage summary"
    "insts=4 symbols=1 classes=1 product_facts=0 dyn_slots=3 equal_pairs=3/3"
    (Disc.Stats.to_string (Disc.Stats.coverage g))

(* The adaptive-serving summary block printed by `discc serve
   --adaptive` (and by the E17 bench), pinned exactly: both the fully
   populated shape and the placeholder shape before any policy has been
   derived. *)
let test_adaptive_summary_golden () =
  let a =
    {
      Serving.Pool.ar_ticks = 12;
      ar_rebuckets = 3;
      ar_minted = 5;
      ar_hints = 24;
      ar_scale_ups = 2;
      ar_scale_downs = 1;
      ar_final_replicas = 3;
      ar_final_spec = "hist:edges20-24-40";
      ar_likely = [ ("hist", [ 20; 24; 40 ]) ];
    }
  in
  check_string "adaptive serve summary"
    "adaptive: ticks=12 rebuckets=3 minted=5 hints=24 scale_ups=2 scale_downs=1 alive=3\n\
     bucket: hist:edges20-24-40\n\
     likely: hist=20,24,40"
    (Serving.Pool.adaptive_summary_to_string a);
  let empty =
    { a with Serving.Pool.ar_final_spec = ""; ar_likely = []; ar_scale_ups = 0 }
  in
  check_string "placeholders before a policy is derived"
    "adaptive: ticks=12 rebuckets=3 minted=5 hints=24 scale_ups=0 scale_downs=1 alive=3\n\
     bucket: (none)\n\
     likely: (none)"
    (Serving.Pool.adaptive_summary_to_string empty)

(* Pinned structural fingerprints of the tiny suite models — the
   identities the compilation cache keys on. A mismatch here means the
   canonical form changed: every persisted cache directory is silently
   cold after such a change, so bump deliberately. To refresh after an
   intentional IR/canonicalization change, regenerate with

     dune exec bin/discc.exe -- fingerprint --all --tiny

   and paste the table below. *)
let pinned_fingerprints =
  [
    ("bert", "c03f3e37724cc0fe6b139351679fe716");
    ("gpt2", "46a4ab043e88f8d651d3a057db795e87");
    ("gpt2-decode", "77bff835fdbd2224cacc8ebb30de89ad");
    ("seq2seq", "63081b005394d57737bfab0ddc6f98c7");
    ("t5", "7d7d7d35fe1d9e1dba086ec1e908fbb6");
    ("crnn", "1ae88223a32328bd03cdcb1e90902ac3");
    ("fastspeech", "c1fceb5a6dcecf0caaa22581f9a345f8");
    ("asr", "bde60ac2e1b32aae1dffd94526eda5cc");
    ("vit", "e3caf31ed25430c501202dd8d6e84dae");
    ("dien", "1928611d2f30f59fcc617bbe3780e25a");
  ]

let test_fingerprint_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all) (List.length pinned_fingerprints);
  List.iter
    (fun (name, expected) ->
      let built = (Models.Suite.find name).Models.Suite.build_tiny () in
      check_string (name ^ " fingerprint")
        expected
        (Ir.Fingerprint.fingerprint ~dims:built.Models.Common.dims
           built.Models.Common.graph))
    pinned_fingerprints

(* Tuned-schedule pins: the autotuner's plan text must be byte-stable —
   the digest doubles as the schedule-cache identity, so silent drift
   here silently invalidates every warmed fleet. The single-kernel plan
   is pinned in full; the suite models pin the digest of the full
   [Tune.Plan.to_string] (the digest is the MD5 of that text). To
   refresh after an intentional cost-model or space change, regenerate
   with

     dune exec bin/discc.exe -- tune --model <name> --tiny --device A10

   and paste the digests below. *)
let test_tuned_plan_golden () =
  let g, s = scaled_exp_graph () in
  let c = Disc.Compiler.compile g in
  let exe = c.Disc.Compiler.exe in
  let rungs =
    List.map
      (fun v ->
        {
          Tune.Search.env = [ ("s", v) ];
          bnd = Disc.Compiler.binding_of_dims exe.Runtime.Executable.g [ (s, v) ];
        })
      [ 16; 64; 128 ]
  in
  let plan = Tune.Search.plan ~device:Gpusim.Device.a10 ~rungs exe in
  check_string "tuned plan text"
    "tuned-plan device=A10\n\
     rungs: s=16 | s=64 | s=128\n\
    \  kernel_3_kLoop: t64.c4+vec4@<=256 -> t64.c1 -> generic\n"
    (Tune.Plan.to_string plan)

let pinned_tuned_digests =
  [
    ("bert", "cc697d8d49b953f25f001f3ea466edb2");
    ("gpt2", "f35453220849f319c6bd7ed24cd47436");
    ("gpt2-decode", "bdfe8098ba5a8ac66414d7801ad9aae9");
    ("seq2seq", "ac5abd0373942e44d0a450eaebb817e5");
    ("t5", "ab6350b544692065ba351e3d9ac2d8f4");
    ("crnn", "f9e2b0112ebb73a34c4d0cf156346720");
    ("fastspeech", "0171d9153257ec36266695b8ba1834bf");
    ("asr", "7f4147149bc5f9f17b61b2c7d1b0e061");
    ("vit", "0c2ca848bb046fec12f173a57b91d2ca");
    ("dien", "7333a92e1e741264ebef62a0a28d304f");
  ]

let test_tuned_digests_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all)
    (List.length pinned_tuned_digests);
  List.iter
    (fun (name, expected) ->
      let entry = Models.Suite.find name in
      let probe = entry.Models.Suite.build_tiny () in
      let tab = Graph.symtab probe.Models.Common.graph in
      let ub d =
        match Table.upper_bound tab d with Some u -> u | None -> 64
      in
      (* same ceiling ladder `discc tune` defaults to: 1/8, 1/2, full *)
      let envs =
        List.sort_uniq compare
          (List.map
             (fun frac ->
               List.map
                 (fun (n, d) -> (n, max 1 (ub d / frac)))
                 probe.Models.Common.dims)
             [ 8; 2; 1 ])
      in
      let session =
        Disc.Session.create ~device:Gpusim.Device.a10 (entry.Models.Suite.build_tiny ())
      in
      let plan, _ = Disc.Session.tune session ~envs in
      check_string (name ^ " tuned-plan digest") expected (Tune.Plan.digest plan))
    pinned_tuned_digests

(* Paper-scale pins: for every suite model at its real size, the MD5 of
   the fusion plan text ([Fusion.Cluster.to_string] after the default
   pass pipeline), the A10 tuned-plan digest at the model's E1
   [bench_dims] rungs, and the MD5 of the tuned executable's simulated
   A10 profiles at those rungs (summary plus one line per launch:
   version, time, bytes, flops) — the exact compile and cost path the
   compile-suite benchmark times. Planner, tuner and cost-path speedups
   must leave all three byte-identical. *)
let pinned_paper_scale =
  [
    ( "bert",
      "2fd7dd815a71ce26756c472fc81dbc71",
      "5465e9cc3b07336848d45033ee253c53",
      "8c593e2bd1a56a288455de9ff8806e92" );
    ( "gpt2",
      "9d40e2fbfeb788f59632bcb3818f7957",
      "12d0c4ca092ad7d1c4c7f41a05b0af1b",
      "fcfed002535f7d8722f0f5b0370a8813" );
    ( "gpt2-decode",
      "93d8ed798a6ce44f5a8df07391797f47",
      "5a9f351ea556c9ba452554eff7aa0fbb",
      "57e506663e01c9a118e551cb2dc8fb82" );
    ( "seq2seq",
      "9604448d10d01060388bcafc53914e9b",
      "ca532db464196977c8a13e8400bb736e",
      "f24cca431e0b525386fd6a077fa914b6" );
    ( "t5",
      "d37e75885056e847dd28c16335580045",
      "4cf2126d50e8f8e2573e077a7897527d",
      "a898a9ee4c6e2f50ab9e533a37f6a0fa" );
    ( "crnn",
      "b9e85e8f7bfc77970c9be3f3bc66eb68",
      "e1c2ea6f5e0dd19d1e984ad03882e47c",
      "67fa43c08d83df591600d45aa08e4db5" );
    ( "fastspeech",
      "320a079537cc62cfe74febcea0a8b18b",
      "746581f53b19369dab43b4612157e9e8",
      "d02d8faf027420b1b41be483e5eb4f89" );
    ( "asr",
      "7e02f4ae1c3de3ad8869ebc5289539c1",
      "5ae9792fdc19364a58379c64f11fef52",
      "d0e74fbc9eda5342418d484c255e0aac" );
    ( "vit",
      "95f843496af2492661a2724fdce6e54c",
      "f030b42a126d12650e9181b329f7f7af",
      "2539d8ae891595f4de19004b5dbd4138" );
    ( "dien",
      "1d3802ac1cfb7f5985269e8ccdf11fa7",
      "fe45b1d4439c5f15855c53c7eafa4414",
      "8525283f77968115fdc5bc04e7c49fef" );
  ]

let simulated_digest exe plan built envs =
  let tuned = Tune.Plan.apply plan exe in
  let lines =
    List.concat_map
      (fun env ->
        let p =
          Runtime.Executable.simulate ~device:Gpusim.Device.a10 tuned
            (Models.Common.binding_for built env)
        in
        Runtime.Profile.to_string p
        :: List.rev_map
             (fun (r : Runtime.Profile.kernel_record) ->
               Printf.sprintf "%s %s %.4f %d %.6g" r.kname r.version_tag r.time_us r.bytes
                 r.flops)
             p.Runtime.Profile.records)
      envs
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let test_paper_scale_golden () =
  Alcotest.(check int) "every suite model pinned"
    (List.length Models.Suite.all) (List.length pinned_paper_scale);
  List.iter
    (fun (name, plan_md5, tuned_digest, simulated_md5) ->
      let entry = Models.Suite.find name in
      let built = entry.Models.Suite.build () in
      let exe = (Disc.Compiler.compile built.Models.Common.graph).Disc.Compiler.exe in
      check_string (name ^ " paper-scale plan digest") plan_md5
        (Digest.to_hex (Digest.string (Fusion.Cluster.to_string exe.Runtime.Executable.plan)));
      let rungs =
        List.map
          (fun env -> { Tune.Search.env; bnd = Models.Common.binding_for built env })
          entry.Models.Suite.bench_dims
      in
      let plan = Tune.Search.plan ~device:Gpusim.Device.a10 ~rungs exe in
      check_string (name ^ " paper-scale A10 tuned-plan digest") tuned_digest
        (Tune.Plan.digest plan);
      check_string (name ^ " paper-scale A10 simulated profiles") simulated_md5
        (simulated_digest exe plan built entry.Models.Suite.bench_dims))
    pinned_paper_scale

(* Full [Pool.run] reports under an E18-style chaos scenario (straggler,
   spike, crash with recovery) on a short fixed dien trace: the four E18
   resilience presets and the two E17 adaptive rows. The digest covers
   every report field — dispositions, latencies, resilience, adaptive
   and per-replica blocks — so any change to the pool's batching,
   padding, control-tick, watchdog, hedge or brownout constants shows. *)
let pool_report_digest ?adaptive resilience =
  let module Pool = Serving.Pool in
  let module Chaos = Serving.Chaos in
  let module Slo = Serving.Slo in
  let reqs =
    Workloads.Queueing.generate_arrivals ~seed:29 ~qps:2400.0 ~n:400
      ~dims:[ ("hist", Workloads.Trace.Skewed (5, 100)) ]
    |> Pool.of_arrivals
    |> Pool.with_class_mix ~seed:29
         [ (Slo.Interactive, 0.25); (Slo.Standard, 0.5); (Slo.Best_effort, 0.25) ]
  in
  let scenario =
    {
      Chaos.seed = 7;
      events =
        [
          { Chaos.at_us = 15_000.0;
            event = Chaos.Straggle { replica = 1; factor = 100.0; duration_us = 100_000.0 } };
          { Chaos.at_us = 50_000.0;
            event = Chaos.Spike
                { duration_us = 20_000.0; requests = 500; dim = "hist"; lo = 5; hi = 100;
                  cls = Slo.Standard } };
          { Chaos.at_us = 60_000.0;
            event = Chaos.Crash { replica = 0; recover_after_us = Some 40_000.0; spinup_us = 5_000.0 } };
        ];
    }
  in
  let cfg =
    Pool.default_config
      ~devices:[ Gpusim.Device.a10; Gpusim.Device.a10; Gpusim.Device.a10 ]
      ~batch_dim:"batch" ~bucket:[ ("hist", Serving.Bucket.Pow2) ]
  in
  let pool =
    Pool.create ~cache:(Disc.Compile_cache.create ()) cfg (Models.Suite.find "dien").Models.Suite.build
  in
  let r = Pool.run ?adaptive ~chaos:scenario ~resilience pool reqs in
  Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))

let pinned_pool_reports =
  let module Pool = Serving.Pool in
  let autoscale =
    { Serving.Autoscaler.default_config with
      Serving.Autoscaler.min_replicas = 2; max_replicas = 4; scale_up_queue = 2 }
  in
  [
    ("no-resilience", (None, Pool.no_resilience), "4f1c1bf592224e130ffae0e7bf7b1c42");
    ("redispatch", (None, { Pool.no_resilience with Pool.redispatch = true }), "df0ffb2dea2519cfcf6f17183672ccd6");
    ("no-brownout", (None, { Pool.default_resilience with Pool.brownout = false }), "44e0e590f4e868a210c48c888f28f17c");
    ("resilient", (None, Pool.default_resilience), "e5a8a4f0c39c76983f7783e53a061967");
    ("adaptive", (Some Pool.default_adaptive, Pool.no_resilience), "7985726165917e214f00578eb7e8e784");
    ( "adaptive+scale",
      (Some { Pool.autoscale = Some autoscale }, Pool.default_resilience),
      "e0324fd9cf2908040c52208cdd497bf6" );
  ]

let test_pool_report_digests () =
  List.iter
    (fun (name, (adaptive, resilience), expected) ->
      check_string (name ^ " report digest") expected (pool_report_digest ?adaptive resilience))
    pinned_pool_reports

let () =
  Alcotest.run "golden"
    [
      ( "text surfaces",
        [
          Alcotest.test_case "printer" `Quick test_printer_golden;
          Alcotest.test_case "plan" `Quick test_plan_golden;
          Alcotest.test_case "emit" `Quick test_emit_golden;
          Alcotest.test_case "cost" `Quick test_cost_golden;
          Alcotest.test_case "profile" `Quick test_profile_string_golden;
          Alcotest.test_case "stats" `Quick test_stats_string_golden;
          Alcotest.test_case "adaptive summary" `Quick test_adaptive_summary_golden;
        ] );
      ( "fingerprints",
        [ Alcotest.test_case "suite models pinned" `Quick test_fingerprint_golden ] );
      ( "tuned schedules",
        [
          Alcotest.test_case "single-kernel plan text" `Quick test_tuned_plan_golden;
          Alcotest.test_case "suite plan digests (A10)" `Quick
            test_tuned_digests_golden;
          Alcotest.test_case "paper-scale plan, tuned, simulated digests" `Quick
            test_paper_scale_golden;
        ] );
      ( "pool reports",
        [ Alcotest.test_case "E18 presets + E17 adaptive rows under chaos" `Quick
            test_pool_report_digests ] );
    ]
