(* Order statistics over timed repetitions and simulated samples, and
   the host clock the timed sections are read from. *)

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks, q in [0, 1]. *)
let quantile (xs : float array) q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Median over [windows] consecutive equal slices of [xs] of each
   slice's [q] quantile: a tail that one long stall in the sequence
   cannot decide alone. *)
let windowed_quantile ~windows (xs : float array) q =
  let w = Array.length xs / windows in
  median (Array.init windows (fun i -> quantile (Array.sub xs (i * w) w) q))

let geomean (xs : float array) =
  if Array.length xs = 0 then invalid_arg "Stat.geomean: no samples";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (Array.length xs))

(* Host-speed calibration. On a shared VM the host runs the same code
   up to a quarter faster or slower for tens of seconds at a time, so a
   raw wall-clock median moves between runs by more than any bound worth
   having. Every timed section is therefore bracketed by two runs of a
   fixed calibration loop that uses nothing from this repository, and
   its time is scaled by [nominal_s] over their mean: host times are
   reported at the speed at which the loop takes [nominal_s]. The loop
   mixes short-lived allocation, a list sort, table lookups and float
   arithmetic, and allocates nothing that survives it, so its time does
   not depend on the benchmark's live heap. *)
let table = Array.make 32768 1

let calibration_loop () =
  let acc = ref 0 and f = ref 0.0 in
  for r = 0 to 399 do
    let l = List.sort compare (List.init 512 (fun i -> ((i * 48271) + r) land 32767)) in
    List.iter
      (fun x ->
        table.(x) <- table.(x) + (!acc land 7);
        acc := !acc + table.((x * 31) land 32767))
      l;
    for i = 1 to 512 do
      f := !f +. sqrt (float_of_int (i + r))
    done
  done;
  !acc + int_of_float !f

(* Calibration loop time, s, at the reference host speed. *)
let nominal_s = 0.016

(* Raw calibration times of this process, s. *)
let calibrations = ref []

let calibrate () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (calibration_loop ()));
  let c = Unix.gettimeofday () -. t0 in
  calibrations := c :: !calibrations;
  c

type 'a timed = {
  value : 'a;
  secs : float;  (** host seconds at the reference speed *)
  scale : float;  (** reference speed over measured speed *)
  alloc : float;  (** bytes allocated *)
}

(* [f ()] after a full compaction, so no repetition inherits the
   previous one's garbage, between two calibrations. *)
let timed f =
  Gc.compact ();
  let c0 = calibrate () in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let value = f () in
  let t1 = Unix.gettimeofday () in
  let alloc = Gc.allocated_bytes () -. a0 in
  let scale = nominal_s /. ((c0 +. calibrate ()) /. 2.0) in
  { value; secs = scale *. (t1 -. t0); scale; alloc }

(* Calls [f i] for i = 0, 1, ... until [seconds] have passed since the
   first call and at least [min_reps] calls were made; results in order. *)
let repeat ~min_reps ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    if i >= min_reps && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let median_of f xs = median (Array.of_list (List.map f xs))

(* Set-up [n] times: the last set-up's result, the median time, and
   every set-up. *)
let setups n f =
  let runs = List.init n (fun _ -> timed f) in
  ((List.nth runs (n - 1)).value, median_of (fun t -> t.secs) runs, runs)
