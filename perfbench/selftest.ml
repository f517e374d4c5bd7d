(* The benchmark's own tests: the arithmetic of Measure on fixed inputs,
   then a tiny-size smoke pass of every workload in both modes, whose JSON
   result must be correct and carry exactly the metrics BENCHMARK.json
   declares, with their units.

   Usage: selftest.exe --agbench EXE --agrid EXE --tmp DIR --benchmark FILE
   (python3 perfbench/run.py --self-test passes these). Exit 0 when every
   check passes. *)

module Json = Agrid_obs.Json
module M = Measure

let agbench = ref ""
let agrid = ref ""
let tmp = ref ".perfbench_tmp"
let benchmark = ref "BENCHMARK.json"

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Fmt.pr "FAIL %s@." name
  end
  else Fmt.pr "ok   %s@." name

let close_to a b = Float.abs (a -. b) < 1e-9

let arithmetic () =
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100 is 50" (M.median (ramp 100) = 50.);
  check "p90 of 1..100 is 90" (M.percentile ~q:0.9 (ramp 100) = 90.);
  check "percentile ignores input order" (M.percentile ~q:0.9 (Array.of_list (List.rev (Array.to_list (ramp 100)))) = 90.);
  check "100 samples leave 10 beyond p90" (M.beyond ~q:0.9 100 = 10);
  check "p90 reported with 10 beyond" (M.tail ~q:0.9 (ramp 100) = Some 90.);
  check "p90 withheld with 9 beyond" (M.tail ~q:0.9 (ramp 99) = None);
  check "p99 needs 1000 samples" (M.tail ~q:0.99 (ramp 999) = None && M.tail ~q:0.99 (ramp 1000) = Some 990.);
  check "single sample percentile" (M.percentile ~q:0.9 [| 7. |] = 7.);
  List.iter
    (fun (s, want) -> check (Fmt.str "name %S valid = %b" s want) (M.valid_name s = want))
    [
      ("latency_p50_ms", true);
      ("core.plan_ms", true);
      ("serve-small", true);
      ("9lives", true);
      ("_hidden", false);
      (".dot", false);
      ("with space", false);
      ("slash/name", false);
      ("", false);
      (String.make 64 'a', true);
      (String.make 65 'a', false);
    ];
  List.iter
    (fun (s, want) -> check (Fmt.str "unit %S valid = %b" s want) (M.valid_unit s = want))
    [ ("ms", true); ("1/s", true); ("%", true); ("MB", true); ("count", true); ("m s", false); (String.make 17 'x', false) ];
  check "growth exponent of a quadrupling is 2" (close_to (M.growth_exponent ~small:[| 1.; 1.; 1. |] ~large:[| 4.; 4.; 4. |]) 2.);
  check "growth exponent uses medians"
    (close_to (M.growth_exponent ~small:[| 0.1; 0.12; 9. |] ~large:[| 0.46; 0.4; 0.5 |]) (Float.log2 (0.46 /. 0.12)));
  check "growth exponent of a linear run is 1" (close_to (M.growth_exponent ~small:[| 3. |] ~large:[| 6. |]) 1.);
  let s = M.split_served ~client_s:0.5 ~latency_s:0.4 ~wall_s:0.25 in
  check "serve split: wire = client - latency_s" (close_to s.M.wire_s 0.1);
  check "serve split: queue = latency_s - wall_s" (close_to s.M.queue_s 0.15);
  let b = M.breakdown ~run:100. ~pool_build:10. ~filter:4. ~score:6. ~plan:80. in
  check "breakdown: pool build self time" (close_to b.M.pool_build_self 6.);
  check "breakdown: unattributed = run - pool build - score - plan" (close_to b.M.unattributed 4.);
  check "breakdown: share" (close_to (M.share b.M.plan b.M.run) 0.8 && M.share 1. 0. = 0.);
  check "json float keeps every digit" (float_of_string (M.json_float 0.1) = 0.1 && M.json_float 3. = "3");
  check "json float refuses nan" (match M.json_float nan with _ -> false | exception Invalid_argument _ -> true)

(* BENCHMARK.json's declared metrics: name -> unit, per section. *)
let declared section =
  let ic = open_in_bin !benchmark in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Option.bind (Json.member section (Json.parse text)) Json.to_list with
  | None -> failwith ("BENCHMARK.json: no " ^ section)
  | Some ms ->
      List.map
        (fun m -> (Option.get (Json.get_string "name" m), Option.get (Json.get_string "unit" m)))
        ms

let read_all fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

let smoke workload trace =
  let argv =
    [| !agbench; "--workload"; workload; "--seed"; "3"; "--seconds"; "0.5"; "--trace"; string_of_int trace;
       "--agrid"; !agrid; "--tmp"; !tmp; "--smoke" |]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process !agbench argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let lines = read_all r in
  let _, status = Unix.waitpid [] pid in
  let what = Fmt.str "smoke %s --trace %d" workload trace in
  check (what ^ ": exit 0") (status = Unix.WEXITED 0);
  match List.rev lines with
  | [] -> check (what ^ ": prints a result") false
  | last :: _ -> (
      match Json.parse last with
      | exception Json.Parse_error e -> check (what ^ ": last line is JSON (" ^ e ^ ")") false
      | j ->
          check (what ^ ": correct") (Json.member "correct" j = Some (Json.Bool true));
          check (what ^ ": nothing failed") (Json.get_int "failed" j = Some 0);
          check (what ^ ": attempted >= 1") (Option.value ~default:0 (Json.get_int "attempted" j) >= 1);
          let want = declared (if trace = 0 then "end_to_end" else "per_layer") in
          let got =
            match Json.member "metrics" j with
            | Some (Json.Obj fields) ->
                List.map
                  (fun (name, v) ->
                    (name, Option.value ~default:"?" (Json.get_string "unit" v), Json.get_float "value" v))
                  fields
            | _ -> []
          in
          check (what ^ ": exactly the declared metrics")
            (List.sort compare (List.map fst want) = List.sort compare (List.map (fun (n, _, _) -> n) got));
          List.iter
            (fun (n, u, v) ->
              check (Fmt.str "%s: %s has the declared unit" what n) (List.assoc_opt n want = Some u);
              check (Fmt.str "%s: %s is a finite number" what n)
                (match v with Some x -> Float.is_finite x | None -> false);
              check (Fmt.str "%s: %s name charset" what n) (M.valid_name n && M.valid_unit u))
            got)

let () =
  Arg.parse
    [
      ("--agbench", Arg.Set_string agbench, "EXE  the benchmark binary");
      ("--agrid", Arg.Set_string agrid, "EXE  the agrid binary");
      ("--tmp", Arg.Set_string tmp, "DIR  scratch directory for the smoke runs");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "selftest: tests of the end-to-end benchmark";
  arithmetic ();
  if !agbench <> "" then
    List.iter
      (fun w -> List.iter (smoke w) [ 0; 1 ])
      [ "paper-batch"; "serve-paper"; "serve-small" ];
  if !failures > 0 then begin
    Fmt.pr "selftest: %d failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr "selftest: OK@."
