(* In-memory span recorder for the traced run.

   A span is one timed call the benchmark makes into a layer's public
   function: name, start, end, the enclosing span, and the model or
   request it served. Spans are kept in memory and written out when the
   benchmark ends. When recording is off, [record] is a plain call, so
   the untraced run that yields the end-to-end metrics pays nothing. *)

type t = {
  name : string;
  id : string;  (** model name or repetition the span served *)
  parent : int;  (** index of the enclosing span, -1 at the root *)
  start_s : float;
  stop_s : float;
  alloc_b : float;  (** bytes allocated between start and stop *)
}

let on = ref false
let spans : t array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

let now () = Unix.gettimeofday ()

let reset () =
  spans := [||];
  count := 0;
  stack := []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 256 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count

let record ?(id = "") name f =
  if not !on then f ()
  else begin
    let idx = !count in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    push { name; id; parent; start_s = 0.0; stop_s = 0.0; alloc_b = 0.0 };
    stack := idx :: !stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let a1 = Gc.allocated_bytes () in
      stack := List.tl !stack;
      !spans.(idx) <- { name; id; parent; start_s = t0; stop_s = t1; alloc_b = a1 -. a0 }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let mark () = !count

(* Self time (ms) and self allocation (bytes) per span name over the
   spans recorded since [mark]: each span's duration minus the part its
   direct children cover. *)
let self_since mark : (string * (float * float)) list =
  let n = !count - mark in
  let child_t = Array.make n 0.0 and child_a = Array.make n 0.0 in
  for i = mark to !count - 1 do
    let s = !spans.(i) in
    if s.parent >= mark then begin
      child_t.(s.parent - mark) <- child_t.(s.parent - mark) +. (s.stop_s -. s.start_s);
      child_a.(s.parent - mark) <- child_a.(s.parent - mark) +. s.alloc_b
    end
  done;
  let tbl = Hashtbl.create 16 in
  for i = mark to !count - 1 do
    let s = !spans.(i) in
    let ms = 1000.0 *. (s.stop_s -. s.start_s -. child_t.(i - mark)) in
    let b = s.alloc_b -. child_a.(i - mark) in
    let ms0, b0 = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (ms0 +. ms, b0 +. b)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let to_json () =
  let t0 = if !count = 0 then 0.0 else !spans.(0).start_s in
  Obs.Json.List
    (List.init !count (fun i ->
         let s = !spans.(i) in
         Obs.Json.Obj
           [
             ("index", Obs.Json.Int i);
             ("name", Obs.Json.Str s.name);
             ("id", Obs.Json.Str s.id);
             ("parent", Obs.Json.Int s.parent);
             ("start_us", Obs.Json.Float (1e6 *. (s.start_s -. t0)));
             ("end_us", Obs.Json.Float (1e6 *. (s.stop_s -. t0)));
             ("alloc_bytes", Obs.Json.Float s.alloc_b);
           ]))

let write path = Obs.Json.write_file path (to_json ())
