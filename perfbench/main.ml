(* Command-line entry point of the benchmark (see NOTES.md):

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the result as one JSON line on standard output and exits 0;
   a run whose correctness gate fails prints its violations on standard
   error instead and exits 1. A traced run also writes its spans to
   perfbench/out/trace-<workload>-<seed>.json. *)

open Perfbench

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map fst Bench.workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload Bench.workloads) then usage ();
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let seconds = float_of_int (int "seconds") in
  if seconds <= 0.0 then usage ();
  let seed = int "seed" in
  let ctx = { Metric.seed; seconds; trace; inject_failure = false } in
  let o = Bench.run workload ctx in
  if trace then begin
    (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write (Printf.sprintf "perfbench/out/trace-%s-%d.json" workload seed)
  end;
  if o.Metric.errors <> [] then begin
    List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) o.Metric.errors;
    exit 1
  end;
  print_endline (Obs.Json.to_string (Metric.to_json ~trace o))
