(* Tests for the device profiles and the roofline cost model. *)

module Device = Gpusim.Device
module Cost = Gpusim.Cost

let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_device_lookup () =
  List.iter
    (fun (name, expect) ->
      match Device.by_name name with
      | Some d -> Alcotest.(check string) name expect d.Device.name
      | None -> Alcotest.failf "device %s not found" name)
    [ ("A10", "A10"); ("a10", "A10"); ("T4", "T4"); ("cpu", "Xeon-8375C"); ("xeon", "Xeon-8375C") ];
  check_bool "unknown" true (Device.by_name "H100" = None)

let test_profile_sanity () =
  check_bool "A10 faster than T4 compute" true (Device.a10.Device.fp32_tflops > Device.t4.Device.fp32_tflops);
  check_bool "A10 more bandwidth" true
    (Device.a10.Device.mem_bandwidth_gbs > Device.t4.Device.mem_bandwidth_gbs);
  check_bool "fp16 rate above fp32" true
    (List.for_all
       (fun d -> d.Device.fp16_tflops > d.Device.fp32_tflops)
       [ Device.a10; Device.t4; Device.xeon ]);
  check_bool "CPU dispatch cheaper than GPU launch" true
    (Device.xeon.Device.kernel_launch_us < Device.a10.Device.kernel_launch_us)

let test_memory_bound_kernel () =
  (* 60 MB of traffic at 600 GB/s and 0.85 eff -> ~117.6 us body *)
  let w =
    { Cost.default_work with Cost.bytes_read = 30_000_000; bytes_written = 30_000_000; blocks = 100_000 }
  in
  let t = Cost.mem_time_us Device.a10 w in
  check_bool "within 5% of analytic value" true (Float.abs (t -. 117.6) < 6.0)

let test_compute_bound_kernel () =
  (* 1 GFLOP at 31.2 TFLOPS, 0.5 eff -> ~64 us *)
  let w = { Cost.default_work with Cost.flops = 1e9; compute_efficiency = 0.5; blocks = 100_000 } in
  let t = Cost.compute_time_us Device.a10 w in
  check_bool "within 5%" true (Float.abs (t -. (1e9 /. (31.2e6 *. 0.5))) < 1.0)

let test_roofline_takes_max () =
  let w =
    { Cost.default_work with Cost.bytes_read = 60_000_000; flops = 1e9; compute_efficiency = 0.5; blocks = 100_000 }
  in
  let body = Cost.body_time_us Device.a10 w in
  let m = Cost.mem_time_us Device.a10 w and c = Cost.compute_time_us Device.a10 w in
  check_bool "body >= max(mem, compute)" true (body >= Float.max m c)

let test_fp16_math_uses_fp16_rate () =
  let w32 = { Cost.default_work with Cost.flops = 1e9; blocks = 100_000 } in
  let w16 = { w32 with Cost.fp16_math = true } in
  let t32 = Cost.compute_time_us Device.a10 w32 in
  let t16 = Cost.compute_time_us Device.a10 w16 in
  checkf "fp16 is tensor-core ratio faster" (t32 /. t16)
    (Device.a10.Device.fp16_tflops /. Device.a10.Device.fp32_tflops)

let test_launch_overhead_floor () =
  (* an empty kernel still costs launch + tail *)
  let w = Cost.default_work in
  let t = Cost.kernel_time_us Device.a10 w in
  check_bool "at least launch+tail" true
    (t >= Device.a10.Device.kernel_launch_us +. Device.a10.Device.kernel_tail_us)

let test_small_grid_penalized () =
  let big = { Cost.default_work with Cost.bytes_read = 1_000_000; blocks = 10_000 } in
  let small = { big with Cost.blocks = 2 } in
  check_bool "underfilled device is slower" true
    (Cost.body_time_us Device.a10 small > Cost.body_time_us Device.a10 big)

let test_gemm_padding_costs () =
  (* padding m from 100 to 128 must not make the GEMM cheaper *)
  let w100 = Cost.gemm_work ~batch:1 ~m:100 ~n:768 ~k:768 ~elem_bytes:4 in
  let w128 = Cost.gemm_work ~batch:1 ~m:128 ~n:768 ~k:768 ~elem_bytes:4 in
  check_bool "padded is not faster" true
    (Cost.kernel_time_us Device.a10 w128 >= Cost.kernel_time_us Device.a10 w100 *. 0.999)

let test_gemm_fp16_flag () =
  let w = Cost.gemm_work ~batch:1 ~m:64 ~n:64 ~k:64 ~elem_bytes:2 in
  check_bool "elem_bytes=2 -> fp16 math" true w.Cost.fp16_math;
  let w4 = Cost.gemm_work ~batch:1 ~m:64 ~n:64 ~k:64 ~elem_bytes:4 in
  check_bool "elem_bytes=4 -> fp32 math" false w4.Cost.fp16_math

let test_gemm_empty_dim () =
  (* a zero-sized dim fills no tile: finite efficiency and cost, no 0/0 *)
  List.iter
    (fun (m, n) ->
      let w = Cost.gemm_work ~batch:1 ~m ~n ~k:64 ~elem_bytes:4 in
      check_bool "finite efficiency" true (Float.is_finite w.Cost.compute_efficiency);
      check_bool "finite time" true (Float.is_finite (Cost.kernel_time_us Device.a10 w)))
    [ (0, 64); (64, 0); (0, 0) ];
  (* end to end: paper-scale BERT at batch=0 simulates to a finite total *)
  let built = (Models.Suite.find "bert").Models.Suite.build () in
  let c = Disc.Compiler.compile built.Models.Common.graph in
  let p =
    Disc.Compiler.simulate c
      [ (Models.Common.dim_exn built "batch", 0); (Models.Common.dim_exn built "seq", 64) ]
  in
  check_bool "finite total at batch=0" true (Float.is_finite (Runtime.Profile.total_us p))

let prop_kernel_time_positive =
  QCheck.Test.make ~name:"kernel time always positive and finite" ~count:200
    QCheck.(triple (int_range 0 100_000_000) (int_range 0 1_000_000_000) (int_range 1 1_000_000))
    (fun (bytes, flops, blocks) ->
      let w =
        { Cost.default_work with Cost.bytes_read = bytes; flops = float_of_int flops; blocks }
      in
      List.for_all
        (fun d ->
          let t = Cost.kernel_time_us d w in
          Float.is_finite t && t > 0.0)
        [ Device.a10; Device.t4; Device.xeon ])

let prop_gemm_flops_exact =
  QCheck.Test.make ~name:"gemm flops = 2 b m n k" ~count:100
    QCheck.(quad (int_range 1 4) (int_range 1 512) (int_range 1 512) (int_range 1 512))
    (fun (b, m, n, k) ->
      let w = Cost.gemm_work ~batch:b ~m ~n ~k ~elem_bytes:4 in
      w.Cost.flops = 2.0 *. float_of_int b *. float_of_int m *. float_of_int n *. float_of_int k)

let () =
  Alcotest.run "gpusim"
    [
      ( "devices",
        [
          Alcotest.test_case "lookup" `Quick test_device_lookup;
          Alcotest.test_case "profile sanity" `Quick test_profile_sanity;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "memory bound" `Quick test_memory_bound_kernel;
          Alcotest.test_case "compute bound" `Quick test_compute_bound_kernel;
          Alcotest.test_case "roofline max" `Quick test_roofline_takes_max;
          Alcotest.test_case "fp16 rate" `Quick test_fp16_math_uses_fp16_rate;
          Alcotest.test_case "launch floor" `Quick test_launch_overhead_floor;
          Alcotest.test_case "small grid" `Quick test_small_grid_penalized;
          Alcotest.test_case "gemm padding" `Quick test_gemm_padding_costs;
          Alcotest.test_case "gemm fp16 flag" `Quick test_gemm_fp16_flag;
          Alcotest.test_case "gemm empty dim" `Quick test_gemm_empty_dim;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_kernel_time_positive; prop_gemm_flops_exact ]
      );
    ]
