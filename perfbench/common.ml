(* Shared plumbing: the pass loop, summaries and correctness bookkeeping. *)

let now = Span.now

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Correctness failures, reported on stderr; any one makes the run's
   [correct] false. *)
let problems : string list ref = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then problems := msg :: !problems) fmt

(* The host-speed probe. A shared virtual machine's speed swings by up to
   2x, for seconds to minutes at a time, with the load its other tenants
   put on the shared cache and memory. So an untraced run brackets every
   timed step with a short, fixed probe — 1M random reads of a 64 MiB
   array, code that is not the repository's — and expresses each pass in
   probe units: its times are scaled by [probe_ref_s] over the pass's
   mean probe time. The figures read as host seconds on a host where a
   probe takes [probe_ref_s], close to a quiet 2-core Xeon VM. Probe time
   is never part of a timed step. *)
let probing = ref false
let probe_ref_s = 0.010
let probe_words = 8 * 1024 * 1024
let probe_reads = 1_000_000
(* Outside the OCaml heap, so the probe leaves [peak_heap_mb] alone. *)
let probe_arr =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
     Bigarray.Array1.fill a 1;
     a)
let probe_s = ref 0.0
let probes = ref 0

let probe () =
  if !probing then begin
    let a = Lazy.force probe_arr in
    let t0 = now () in
    let x = ref 7 and sum = ref 0 in
    for _ = 1 to probe_reads do
      x := ((!x * 1103515245) + 12345) land (probe_words - 1);
      sum := !sum + Bigarray.Array1.unsafe_get a !x
    done;
    ignore (Sys.opaque_identity !sum);
    probe_s := !probe_s +. (now () -. t0);
    incr probes
  end

(* [f ()] and its host seconds, less any probes taken inside it. *)
let timed f =
  probe ();
  let p0 = !probe_s in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 -. (!probe_s -. p0) in
  probe ();
  (x, dt)

(* End-to-end metrics that are host seconds, and those that are per host
   second; the probe scales both. *)
let seconds_metrics = [ "setup_s"; "pass_s" ]
let rate_metrics = [ "volumes_per_s"; "logical_backup_mb_s" ]

(* [m], a pass's metrics, in probe units: [speed] is [probe_ref_s] over
   the pass's mean probe time. *)
let scale speed m =
  List.map
    (fun (k, v) ->
      if List.mem k seconds_metrics then (k, v *. speed)
      else if List.mem k rate_metrics then (k, v /. speed)
      else (k, v))
    m

(* Run [pass i] until [seconds] of wall time have gone and at least
   [min_passes] passes are done. The heap is collected before each pass so
   every pass starts from the same state. An untraced run probes the host
   around every timed step and returns its passes in probe units. *)
let repeat ~seconds ~min_passes ~trace pass =
  probing := not trace;
  let t0 = Unix.gettimeofday () in
  let rec go acc i =
    if i >= min_passes && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      probe_s := 0.0;
      probes := 0;
      let raw = pass i in
      let m =
        if !probes = 0 then raw
        else scale (probe_ref_s *. Float.of_int !probes /. !probe_s) raw
      in
      let show m =
        String.concat " "
          (List.filter_map
             (fun (k, v) -> if v <> 0.0 then Some (Printf.sprintf "%s=%.4g" k v) else None)
             m)
      in
      Printf.eprintf "pass %d: %s\n%!" i (show m);
      if !probes > 0 then
        Printf.eprintf "  raw: %s probe=%.4g\n%!" (show raw)
          (!probe_s /. Float.of_int !probes);
      go (m :: acc) (i + 1)
    end
  in
  go [] 0

(* One value per metric name from a run's passes: the median. An untraced
   run drops its first pass, which warms the heap and the caches. *)
let summarize ~trace passes =
  let passes =
    match passes with _ :: (_ :: _ as rest) when not trace -> rest | ps -> ps
  in
  match passes with
  | [] -> []
  | first :: _ ->
    List.map (fun (name, _) -> (name, median (List.map (List.assoc name) passes))) first

type outcome = {
  attempted : int;
  failed : int;  (** operations that failed and were not expected to *)
  metrics : (string * float) list;
}

(* Traced-pass metrics, read from the span tables. *)
let secs name = (name ^ ".s", Span.seconds name)
let alloc name = (name ^ ".alloc_mb", Span.alloc_mb name)
let counted name = (name, Span.counted name)

let coverage ~wall =
  ("trace.coverage", if wall > 0.0 then !Span.covered /. wall else 0.0)
