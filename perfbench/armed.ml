(* [armed-night]: a deadline night hit by a drive storm, with the obs and
   SLO planes armed — the [fleet run --report-out] path, twice.

   A pass runs the night until the storm aborts it, saves the FLT1 catalog
   and loads it back, resumes the night to completion on a fresh plane,
   then replays the SLO rules over the resumed night, analyzes it for the
   bottleneck verdict, and writes the NIGHT1 report and the Chrome trace.

   The traced pass also runs both nights disarmed, so the plane's
   recording cost is the difference. *)

open Common
module Fleet = Repro_fleet.Fleet
module Obs = Repro_obs.Obs
module Slo = Repro_obs.Slo
module Analysis = Repro_obs.Analysis
module Serde = Repro_util.Serde

(* [Analysis.analyze] grows faster than linearly with the night, so this
   is sized for a report step that is a real share of the pass. *)
let volumes = 240
let storm_drives = 2

let spec seed =
  Fleet.Spec.synth ~seed ~volumes ~hosts:2 ~drives_per_host:4 ~tenants:4
    ~bytes_per_volume:20_000 ~deadline_every:8 ~deadline_s:0.5 ()

let storm seed =
  {
    Fleet.storm_after = volumes / 5;
    storm_drives;
    storm_abort_after = Some (volumes / 2);
    storm_seed = seed;
  }

(* Set-up is spec and plan, repeated before every pass. *)
let setup seed = timed (fun () -> Fleet.plan (spec seed))

let alerts kind prefix (r : Fleet.report) =
  List.length
    (List.filter
       (fun (a : Slo.alert) ->
         a.Slo.a_kind = kind && String.starts_with ~prefix a.Slo.a_rule)
       r.Fleet.rp_alerts)

(* The night's expected casualties, checked by exact count: each doomed
   drive loses one volume, the abort strands the rest of the first run,
   and the resumed run completes everything else. *)
let check_nights (r1 : Fleet.report) (r2 : Fleet.report) (st : Fleet.Status.t) =
  let storm_lost =
    List.length
      (List.filter (fun (_, m) -> String.starts_with ~prefix:"drive storm" m) r1.Fleet.rp_failed)
  in
  let done1 = List.length r1.Fleet.rp_completed in
  check (storm_lost = storm_drives) "armed-night: storm lost %d volumes, expected %d"
    storm_lost storm_drives;
  check
    (done1 >= volumes / 2 && done1 < volumes)
    "armed-night: first run completed %d volumes before the abort" done1;
  check
    (done1 + List.length r1.Fleet.rp_failed + List.length r1.Fleet.rp_unran = volumes)
    "armed-night: first run accounts for %d volumes"
    (done1 + List.length r1.Fleet.rp_failed + List.length r1.Fleet.rp_unran);
  check
    (r2.Fleet.rp_failed = [] && r2.Fleet.rp_unran = []
    && List.length r2.Fleet.rp_completed = volumes - done1)
    "armed-night: resumed run completed %d of %d"
    (List.length r2.Fleet.rp_completed) (volumes - done1);
  check
    (List.length st.Fleet.Status.st_completed = volumes)
    "armed-night: catalog covers %d of %d volumes"
    (List.length st.Fleet.Status.st_completed) volumes;
  List.iter
    (fun (kind, prefix) ->
      check
        (alerts kind prefix r1 + alerts kind prefix r2 > 0)
        "armed-night: no %s %s alert" prefix
        (if kind = Slo.Firing then "firing" else "resolved"))
    [ (Slo.Firing, "window-miss."); (Slo.Resolved, "window-miss."); (Slo.Firing, "drive-storm") ]

(* Volumes admitted over both runs, and those that failed unexpectedly. *)
let attempted = ref 0
let failed = ref 0

let count_outcomes (r1 : Fleet.report) (r2 : Fleet.report) =
  let expected (_, m) =
    String.starts_with ~prefix:"drive storm" m || m = "night aborted by storm"
  in
  attempted := !attempted + volumes + List.length r2.Fleet.rp_completed
    + List.length r2.Fleet.rp_failed + List.length r2.Fleet.rp_unran;
  failed := !failed + List.length (List.filter (fun f -> not (expected f)) r1.Fleet.rp_failed)
    + List.length r2.Fleet.rp_failed + List.length r2.Fleet.rp_unran

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

type pass = {
  r1 : Fleet.report;
  r2 : Fleet.report;
  run_s : float;  (** both [Fleet.run] calls *)
  events : int;
  trace_bytes : int;
  transitions : int;
}

let armed_pass ~out seed plan =
  let armed_run ?storm ?resume () =
    let plane = Obs.create () in
    let x, dt =
      timed (fun () ->
          Span.span "fleet.run" (fun () ->
              Obs.with_armed plane (fun () -> Fleet.run ?storm ?resume plan)))
    in
    (x, plane, dt)
  in
  let (r1, st1), plane1, dt1 = armed_run ~storm:(storm seed) () in
  let flt1 =
    Span.span "fleet.status_save" (fun () ->
        let w = Serde.writer () in
        Fleet.Status.save w st1;
        let flt1 = Serde.contents w in
        write_file (Filename.concat out "night.flt1") flt1;
        flt1)
  in
  let resume = Span.span "fleet.status_load" (fun () -> Fleet.Status.load (Serde.reader flt1)) in
  let (r2, status), plane2, dt2 = armed_run ~resume () in
  let transitions =
    Span.span "slo.replay" (fun () ->
        let e = Slo.create ~rules:(Fleet.builtin_rules plan.Fleet.p_spec) plane2 in
        Slo.replay e;
        List.length (Slo.alerts e))
  in
  let verdict =
    Span.span "analysis.analyze" (fun () ->
        List.find_map
          (fun (ph : Analysis.phase) ->
            if ph.Analysis.p_name = "fleet" then
              Some (Analysis.verdict_to_string ph.Analysis.p_verdict)
            else None)
          (Analysis.analyze plane2).Analysis.phases)
  in
  let report =
    Span.span "fleet.night_report" (fun () ->
        let s = Fleet.night_report ?verdict plan r2 ~status in
        write_file (Filename.concat out "night.json") s;
        s)
  in
  let trace_bytes =
    Span.span "obs.chrome_trace" (fun () ->
        let s = Obs.chrome_trace plane2 in
        write_file (Filename.concat out "night.trace.json") s;
        String.length s)
  in
  check_nights r1 r2 status;
  count_outcomes r1 r2;
  check (verdict <> None) "armed-night: no fleet verdict";
  check
    (match Fleet.attainment_summary report with
    | Some (fleet, tenants, hosts) ->
      fleet > 0.0 && fleet < 1.0 && List.length tenants = 4 && List.length hosts = 2
    | None -> false)
    "armed-night: the NIGHT1 report does not read back";
  {
    r1; r2; run_s = dt1 +. dt2;
    events = List.length (Obs.events plane1) + List.length (Obs.events plane2);
    trace_bytes; transitions;
  }

let untraced_pass ~out seed =
  let plan, setup_s = setup seed in
  let p, pass_s = timed (fun () -> armed_pass ~out seed plan) in
  let completed = List.length p.r1.Fleet.rp_completed + List.length p.r2.Fleet.rp_completed in
  [
    ("setup_s", setup_s);
    ("pass_s", pass_s);
    ("volumes_per_s", Float.of_int completed /. p.run_s);
    ( "logical_backup_mb_s",
      Float.of_int (p.r1.Fleet.rp_bytes + p.r2.Fleet.rp_bytes) /. 1e6 /. p.run_s );
  ]

let traced_pass ~out seed =
  let plan, _ = setup seed in
  (* The same two nights disarmed, outside the traced window: the
     reference the armed runs are measured against. *)
  let (_, st1), d1 = timed (fun () -> Fleet.run ~storm:(storm seed) plan) in
  let _, d2 = timed (fun () -> Fleet.run ~resume:st1 plan) in
  Span.reset ();
  Gc.full_major ();
  let p, wall = timed (fun () -> armed_pass ~out seed plan) in
  let record = p.run_s -. (d1 +. d2) in
  coverage ~wall
  :: ("fleet.run.s", d1 +. d2)
  :: ("obs.record.s", record)
  :: ("obs.events", Float.of_int p.events)
  :: ("obs.trace_mb", Float.of_int p.trace_bytes /. 1e6)
  :: ("slo.transitions", Float.of_int p.transitions)
  :: alloc "analysis.analyze"
  :: List.map secs
       [
         "obs.chrome_trace"; "slo.replay"; "analysis.analyze"; "fleet.status_save";
         "fleet.status_load"; "fleet.night_report";
       ]

let run ~seed ~seconds ~trace ~out =
  let pass = if trace then traced_pass else untraced_pass in
  let passes = repeat ~seconds ~min_passes:(if trace then 1 else 4) ~trace (fun _ -> pass ~out seed) in
  { attempted = !attempted; failed = !failed; metrics = summarize ~trace passes }
