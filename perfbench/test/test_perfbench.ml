(* Tests of the benchmark's own code, on short runs of each workload:
   the declared metrics against BENCHMARK.json, exact repetition of the
   simulated and counted metrics under one seed, and failure accounting
   under an injected failure. *)

open Perfbench

let check_bool = Alcotest.(check bool)

(* The workloads at test size: two suite models, short traces. *)
let small =
  [
    ( "compile-suite",
      Compile_suite.run ~entries:[ Models.Suite.find "dien"; Models.Suite.find "crnn" ] );
    ("serve-drift", Serve.run { Serve.drift with requests = 4_000; probe_requests = 1_000; compiles_per_rep = 1 });
    ("serve-exact", Serve.run { Serve.exact with requests = 600; probe_requests = 300 });
    ("decode-mixed", Decode_mixed.run ~sequences:800 ~probe_requests:300);
  ]

let ctx ?(trace = false) ?(inject_failure = false) seed =
  { Metric.seed; seconds = 0.01; trace; inject_failure }

let benchmark_json =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse s with Ok j -> j | Error e -> failwith e

let field k j = Option.get (Obs.Json.member k j)
let str k j = Option.get (Obs.Json.to_string_opt (field k j))
let list k j = match field k j with Obs.Json.List l -> l | _ -> failwith k

let test_declarations () =
  let all = Metric.end_to_end @ Metric.per_layer in
  List.iter
    (fun (d : Metric.decl) ->
      check_bool ("valid name " ^ d.name) true (Metric.valid_name d.name);
      check_bool ("valid unit " ^ d.unit) true (Metric.valid_unit d.unit))
    all;
  let names = List.map (fun (d : Metric.decl) -> d.name) all in
  Alcotest.(check int) "names unique" (List.length names) (List.length (List.sort_uniq compare names));
  let json_decls k =
    List.map (fun j -> (str "name" j, str "unit" j, str "better" j)) (list k benchmark_json)
  in
  let ours decls =
    List.map
      (fun (d : Metric.decl) ->
        (d.name, d.unit, match d.better with Metric.Lower -> "lower" | Higher -> "higher"))
      decls
  in
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (json_decls "end_to_end") (ours Metric.end_to_end);
  Alcotest.(check (list (triple string string string)))
    "per_layer" (json_decls "per_layer") (ours Metric.per_layer);
  Alcotest.(check (list string))
    "workloads"
    (List.map (str "name") (list "workloads" benchmark_json))
    (List.map fst Bench.workloads)

(* Every workload emits exactly the declared set, untraced and traced. *)
let test_emits_declared (name, run) () =
  List.iter
    (fun trace ->
      let o = run (ctx ~trace 3) in
      Alcotest.(check (list string)) (name ^ " gate") [] o.Metric.errors;
      Alcotest.(check (list string)) (name ^ " metric set") [] (Metric.check_values ~trace o.values);
      let json = Obs.Json.to_string (Metric.to_json ~trace o) in
      check_bool "result parses" true (Result.is_ok (Obs.Json.parse json)))
    [ false; true ]

(* Two runs under one seed: every simulated or counted metric is
   identical; allocation agrees to the GC counters' granularity. *)
let test_exact_repeat (name, run) () =
  let values kind o =
    List.filter_map
      (fun (d : Metric.decl) ->
        if d.kind = kind then Some (d.name, List.assoc d.name o.Metric.values) else None)
      Metric.end_to_end
  in
  let a = run (ctx 5) and b = run (ctx 5) in
  Alcotest.(check (list (pair string (float 0.0))))
    (name ^ " exact metrics") (values Metric.Exact a) (values Metric.Exact b);
  List.iter2
    (fun (k, x) (_, y) ->
      check_bool (Printf.sprintf "%s %s %g ~ %g" name k x y) true
        (Float.abs (x -. y) <= 0.02 *. Float.abs x))
    (values Metric.Alloc a) (values Metric.Alloc b);
  check_bool "attempted" true (a.Metric.attempted > 0 && a.Metric.failed = 0)

let test_injected_failure (name, run) () =
  let o = run (ctx ~inject_failure:true 5) in
  check_bool (name ^ " counts the failure") true (o.Metric.failed > 0 && o.attempted > 0)

let () =
  let per_workload f = List.map (fun (n, run) -> Alcotest.test_case n `Slow (f (n, run))) small in
  Alcotest.run "perfbench"
    [
      ("declarations", [ Alcotest.test_case "match BENCHMARK.json" `Quick test_declarations ]);
      ("declared metrics", per_workload test_emits_declared);
      ("exact repeat", per_workload test_exact_repeat);
      ("injected failure", per_workload test_injected_failure);
    ]
