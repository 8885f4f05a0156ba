(* Analytical kernel cost model.

   A kernel execution is described by its memory traffic, arithmetic
   work and schedule quality; the model combines them roofline-style:

     time = launch + tail + max(mem_time, compute_time) / occupancy_ramp

   Occupancy captures the small-shape regime where a kernel cannot fill
   the device (short sequences / tiny batches), which is exactly where
   launch overhead and fusion dominate end-to-end latency — the regime
   the paper's evaluation stresses. *)

type kernel_work = {
  bytes_read : int;
  bytes_written : int;
  flops : float;
  mem_efficiency : float; (* fraction of peak bandwidth achieved *)
  compute_efficiency : float; (* fraction of peak flops achieved *)
  blocks : int; (* launch grid size, for occupancy *)
  threads_per_block : int;
  fp16_math : bool; (* run arithmetic at the fp16/tensor-core rate *)
}

let default_work =
  {
    bytes_read = 0;
    bytes_written = 0;
    flops = 0.0;
    mem_efficiency = 0.85;
    compute_efficiency = 0.6;
    blocks = 1;
    threads_per_block = 256;
    fp16_math = false;
  }

(* Fraction of the device a launch can keep busy. Each SM runs ~4 blocks
   of 256 threads concurrently; below that the kernel is partially
   latency-bound. *)
let occupancy (d : Device.t) (w : kernel_work) =
  let resident = float_of_int (d.sm_count * 4) in
  let b = float_of_int (max 1 w.blocks) in
  Float.min 1.0 ((b /. resident) ** 0.75)

let mem_time_us (d : Device.t) (w : kernel_work) =
  let bytes = float_of_int (w.bytes_read + w.bytes_written) in
  bytes /. (d.mem_bandwidth_gbs *. 1e3 *. w.mem_efficiency)
(* GB/s = bytes/µs * 1e-3 => bytes / (GB/s * 1e3) = µs *)

let compute_time_us (d : Device.t) (w : kernel_work) =
  let peak = if w.fp16_math then d.fp16_tflops else d.fp32_tflops in
  w.flops /. (peak *. 1e6 *. w.compute_efficiency)
(* TFLOPS = flops/µs * 1e-6 *)

(* Kernel body time, excluding dispatch. *)
let body_time_us (d : Device.t) (w : kernel_work) =
  let occ = Float.max 0.05 (occupancy d w) in
  let roofline = Float.max (mem_time_us d w) (compute_time_us d w) in
  d.kernel_tail_us +. (roofline /. occ)

let kernel_time_us (d : Device.t) (w : kernel_work) =
  d.kernel_launch_us +. body_time_us d w

(* Library GEMM: batched [m,k]x[k,n]. Efficiency ramps with tile
   utilization the way cuBLAS does: small/skinny problems waste most of
   the device. *)
let gemm_work ~batch ~m ~n ~k ~elem_bytes =
  (* cuBLAS-style: boundary-tile waste lowers efficiency for skinny
     problems, but the library fills the device via split-K/small tiles,
     so no additional occupancy penalty applies (blocks kept high). *)
  let natural = batch * ((m + 127) / 128) * ((n + 127) / 128) in
  let tile_util =
    (* an empty dim fills no tile: utilisation 0, not 0/0 *)
    let frac x =
      if x <= 0 then 0.0 else float_of_int x /. float_of_int (((x + 127) / 128) * 128)
    in
    frac m *. frac n
  in
  let flops = 2.0 *. float_of_int batch *. float_of_int m *. float_of_int n *. float_of_int k in
  {
    default_work with
    bytes_read = elem_bytes * batch * ((m * k) + (k * n));
    bytes_written = elem_bytes * batch * m * n;
    flops;
    compute_efficiency = 0.08 +. (0.47 *. (tile_util ** 0.7));
    mem_efficiency = 0.85;
    blocks = max natural 512;
    fp16_math = elem_bytes <= 2;
  }

let conv2d_work ~out_numel ~kh ~kw ~cin ~in_bytes ~out_bytes =
  let flops = 2.0 *. float_of_int out_numel *. float_of_int (kh * kw * cin) in
  {
    default_work with
    bytes_read = in_bytes;
    bytes_written = out_bytes;
    flops;
    compute_efficiency = 0.45;
    mem_efficiency = 0.8;
    blocks = max 1 (out_numel / (256 * 8));
  }
