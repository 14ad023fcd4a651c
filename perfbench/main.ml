(* The benchmark driver: one workload, one seed, one mode.

     main.exe --workload night|paper|armed-night --seed N --seconds S
              --trace 0|1 [--out DIR] [--spec BENCHMARK.json]

   Prints progress and problems on stderr and, as the last line of
   stdout, one JSON object: whether every output checked out, the
   operations attempted and failed, and the metrics of the mode — the
   end-to-end set with --trace 0, the per-layer set with --trace 1.
   The names and units come from BENCHMARK.json (--spec). Every workload
   prints every name of the mode; a layer a workload never calls reads 0. *)

module Json = Repro_obs.Slo.Json

(* [(name, unit)] of one metric list of BENCHMARK.json. *)
let metric_list spec key =
  let field m k =
    match Json.member k m with
    | Some (Json.Str s) -> s
    | _ -> failwith ("BENCHMARK.json: bad " ^ key)
  in
  match Json.member key spec with
  | Some (Json.Arr ms) -> List.map (fun m -> (field m "name", field m "unit")) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let usage () =
  prerr_endline
    "usage: main.exe --workload night|paper|armed-night --seed N --seconds S \
     --trace 0|1 [--out DIR] [--spec FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref false and out = ref "." and spec = ref "BENCHMARK.json" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := (t = "1"); parse rest
    | "--out" :: d :: rest -> out := d; parse rest
    | "--spec" :: f :: rest -> spec := f; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = !seed and seconds = !seconds and trace = !trace in
  let listed =
    metric_list
      (Json.parse (In_channel.with_open_bin !spec In_channel.input_all))
      (if trace then "per_layer" else "end_to_end")
  in
  let o =
    match !workload with
    | "night" -> Night.run ~seed ~seconds ~trace
    | "paper" -> Paper.run ~seed ~seconds ~trace
    | "armed-night" -> Armed.run ~seed ~seconds ~trace ~out:!out
    | _ -> usage ()
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name listed) then failwith ("metric not in BENCHMARK.json: " ^ name))
    o.Common.metrics;
  let heap_mb =
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name o.Common.metrics with
          | Some v -> v
          | None when trace -> 0.0
          | None when name = "peak_heap_mb" -> heap_mb
          | None -> failwith ("workload did not report " ^ name)
        in
        (name, unit, v))
      listed
  in
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) (List.rev !Common.problems);
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (!Common.problems = []) o.Common.attempted o.Common.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name v unit)
          metrics));
  print_newline ()
