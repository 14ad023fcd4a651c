(* [night]: a disarmed fleet night of small volumes.

   End to end it times [Fleet.run]. The traced pass rebuilds every volume
   from its spec outside the fleet, one layer call at a time, checks each
   rebuilt tape against the night's FLT1 catalog, and replays the night's
   schedule through [Scheduler.run_tasks] with no-op task bodies. *)

open Common
module Fleet = Repro_fleet.Fleet
module Scheduler = Repro_backup.Scheduler
module Engine = Repro_backup.Engine
module Strategy = Repro_backup.Strategy
module Catalog = Repro_backup.Catalog
module Resource_id = Scheduler.Resource_id
module Volume = Repro_block.Volume
module Fs = Repro_wafl.Fs
module Generator = Repro_workload.Generator
module Library = Repro_tape.Library
module Link = Repro_net.Link
module Serde = Repro_util.Serde
module Crc32 = Repro_util.Crc32

(* Volumes are pinned to hosts, so the goodput over the link bound can
   reach only the share of the bytes on the busier host's link. A volume's
   bytes are heavy-tailed: at 200 volumes, seed 110 drew one 3.6 MB volume,
   put 35% more bytes on one host and read 0.87 while that host's link ran
   at full rate. At 600 volumes the worst of 85 seeds read 0.94. *)
let volumes = 600
let bytes_per_volume = 20_000

let spec seed =
  Fleet.Spec.synth ~seed ~volumes ~hosts:2 ~drives_per_host:4 ~tenants:4
    ~bytes_per_volume ()

(* Set-up is spec and plan, repeated before every pass. *)
let setup seed = timed (fun () -> Fleet.plan (spec seed))

let fingerprint (st : Fleet.Status.t) =
  List.map
    (fun (c : Fleet.Status.completed) ->
      (c.Fleet.Status.c_volume, c.Fleet.Status.c_tape_crc, c.Fleet.Status.c_finished))
    st.Fleet.Status.st_completed

let check_night (r : Fleet.report) (st : Fleet.Status.t) =
  let ratio = r.Fleet.rp_goodput_bytes_s /. r.Fleet.rp_link_bound_bytes_s in
  check
    (List.length st.Fleet.Status.st_completed = volumes
    && r.Fleet.rp_failed = [] && r.Fleet.rp_unran = [])
    "night: %d of %d volumes completed" (List.length st.Fleet.Status.st_completed)
    volumes;
  check (ratio >= 0.9 && ratio <= 1.01) "night: goodput/link bound %.4f" ratio

(* Volumes a night did not complete; a disarmed night completes them all. *)
let failed = ref 0

let count_failed (r : Fleet.report) =
  failed := !failed + List.length r.Fleet.rp_failed + List.length r.Fleet.rp_unran

let first_night = ref None

let untraced_pass seed =
  let plan, setup_s = setup seed in
  let (r, st), dt = timed (fun () -> Fleet.run plan) in
  check_night r st;
  count_failed r;
  (match !first_night with
  | None -> first_night := Some (fingerprint st)
  | Some fp -> check (fp = fingerprint st) "night: passes differ");
  [
    ("setup_s", setup_s);
    ("volumes_per_s", Float.of_int (List.length r.Fleet.rp_completed) /. dt);
    ("logical_backup_mb_s", Float.of_int r.Fleet.rp_bytes /. 1e6 /. dt);
    ("pass_s", dt);
  ]

(* Fleet's per-volume geometry and workload profile (fleet.ml), rebuilt
   here; the tape CRC check proves the copy faithful. *)
let volume_data_blocks bytes = max 2048 (bytes / 2048)

let volume_profile seed =
  {
    Generator.default with
    Generator.seed;
    median_file_bytes = 4096.0;
    files_per_dir = 4;
    dirs_per_dir = 2;
    max_depth = 2;
  }

type rebuilt = { payload : int; dump_elapsed : float }

let rebuild (v : Fleet.Spec.volume) =
  let vol =
    Span.span "block.volume_create" (fun () ->
        Volume.create ~label:v.Fleet.Spec.v_filer
          (Volume.small_geometry
             ~data_blocks:(volume_data_blocks v.Fleet.Spec.v_bytes)))
  in
  let fs = Span.span "wafl.mkfs" (fun () -> Fs.mkfs vol) in
  let stats =
    Span.span "workload.populate" (fun () ->
        Generator.populate
          ~profile:(volume_profile v.Fleet.Spec.v_seed)
          ~fs ~root:"/data" ~total_bytes:v.Fleet.Spec.v_bytes ())
  in
  let lib, entry, dump_elapsed =
    Span.span "core.backup_job" (fun () ->
        let lib = Library.create ~slots:4 ~label:v.Fleet.Spec.v_name () in
        let eng = Engine.create ~fs ~libraries:[ lib ] () in
        let entry =
          Engine.backup_job eng
            (Engine.Job.make ~strategy:Strategy.Logical ~subtree:"/data"
               ~label:v.Fleet.Spec.v_name ())
        in
        let elapsed =
          match Engine.last_stats eng with
          | Some s -> s.Scheduler.elapsed
          | None -> 0.0
        in
        (lib, entry, elapsed))
  in
  let tape =
    Span.span "tape.library_save" (fun () ->
        let w = Serde.writer () in
        Library.save w lib;
        Serde.contents w)
  in
  let crc = Span.span "util.crc32" (fun () -> Crc32.string tape) in
  (stats.Generator.bytes, entry.Catalog.bytes, String.length tape, crc, dump_elapsed)

(* The night's schedule again, from the rebuilt demand vectors (the same
   formulas [Fleet.run] applies) with task bodies that do no work. *)
let replay (plan : Fleet.plan) (built : (string, rebuilt) Hashtbl.t) =
  let spec = plan.Fleet.p_spec in
  let host_of = Hashtbl.create 16 in
  List.iter
    (fun (s, h) -> Hashtbl.replace host_of (Resource_id.to_key s) h)
    plan.Fleet.p_slots;
  let goodput h =
    Link.model_goodput
      (List.find (fun (x : Fleet.Spec.host) -> x.Fleet.Spec.h_name = h)
         spec.Fleet.Spec.s_hosts)
        .Fleet.Spec.h_link
  in
  let budget t =
    (List.find (fun (x : Fleet.Spec.tenant) -> x.Fleet.Spec.t_name = t)
       spec.Fleet.Spec.s_tenants)
      .Fleet.Spec.t_budget_bytes_s
  in
  let tasks =
    List.map
      (fun (a : Fleet.assignment) ->
        let v = a.Fleet.a_volume in
        let b = Hashtbl.find built v.Fleet.Spec.v_name in
        let payload = Float.of_int b.payload in
        Scheduler.task ~ready:a.Fleet.a_ready ~label:v.Fleet.Spec.v_name
          ~claims:[ Scheduler.One_of a.Fleet.a_slots ]
          (fun ~now:_ ~granted ->
            let slot = List.hd granted in
            let host = Hashtbl.find host_of (Resource_id.to_key slot) in
            ( (),
              [
                Scheduler.demand slot b.dump_elapsed;
                Scheduler.demand (Resource_id.Link host) (payload /. goodput host);
                Scheduler.demand (Resource_id.Disk v.Fleet.Spec.v_filer)
                  (payload /. Engine.default_io_model.Engine.logical_read_bytes_s);
                Scheduler.demand (Resource_id.Tenant v.Fleet.Spec.v_tenant)
                  (payload /. budget v.Fleet.Spec.v_tenant);
              ] )))
      plan.Fleet.p_assignments
  in
  let intervals = ref 0 in
  let _, stats =
    Span.span "core.scheduler" (fun () ->
        Scheduler.run_tasks
          ~on_interval:(fun ~t0:_ ~t1:_ _ -> incr intervals)
          ~slots:(List.map fst plan.Fleet.p_slots)
          tasks)
  in
  Span.count "core.scheduler.intervals" !intervals;
  stats.Scheduler.p_elapsed

let traced_pass seed =
  (* The night itself is the reference, outside the traced window. *)
  let r, st = Fleet.run (fst (setup seed)) in
  check_night r st;
  count_failed r;
  let catalog =
    let w = Serde.writer () in
    Fleet.Status.save w st;
    Fleet.Status.load (Serde.reader (Serde.contents w))
  in
  let by_name = Hashtbl.create volumes in
  List.iter
    (fun (c : Fleet.Status.completed) -> Hashtbl.replace by_name c.Fleet.Status.c_volume c)
    catalog.Fleet.Status.st_completed;
  Span.reset ();
  let built = Hashtbl.create volumes in
  let mismatches = ref 0 and user = ref 0 and payload = ref 0 in
  let elapsed, wall =
    timed (fun () ->
        let plan = Span.span "fleet.plan" (fun () -> Fleet.plan (spec seed)) in
        List.iter
          (fun (a : Fleet.assignment) ->
            let v = a.Fleet.a_volume in
            let user_bytes, bytes, tape_bytes, crc, dump_elapsed = rebuild v in
            user := !user + user_bytes;
            payload := !payload + bytes;
            (match Hashtbl.find_opt by_name v.Fleet.Spec.v_name with
            | Some c
              when c.Fleet.Status.c_tape_crc = crc
                   && c.Fleet.Status.c_tape_bytes = tape_bytes
                   && c.Fleet.Status.c_bytes = bytes ->
              ()
            | _ -> incr mismatches);
            Hashtbl.replace built v.Fleet.Spec.v_name { payload = bytes; dump_elapsed })
          plan.Fleet.p_assignments;
        replay plan built)
  in
  check (!mismatches = 0) "night: %d rebuilt tapes differ from the catalog" !mismatches;
  check
    (Float.abs (elapsed -. r.Fleet.rp_elapsed) <= 1e-9 *. r.Fleet.rp_elapsed)
    "night: replayed makespan %.9g, night %.9g" elapsed r.Fleet.rp_elapsed;
  Span.count "fleet.crc_mismatches" !mismatches;
  coverage ~wall
  :: ("dump.tape_bytes_per_user_byte", Float.of_int !payload /. Float.of_int !user)
  :: List.map secs
       [
         "block.volume_create"; "wafl.mkfs"; "workload.populate"; "core.backup_job";
         "tape.library_save"; "util.crc32"; "core.scheduler"; "fleet.plan";
       ]
  @ List.map alloc [ "wafl.mkfs"; "workload.populate"; "core.backup_job" ]
  @ List.map counted [ "core.scheduler.intervals"; "fleet.crc_mismatches" ]

let run ~seed ~seconds ~trace =
  let pass = if trace then traced_pass else untraced_pass in
  let passes = repeat ~seconds ~min_passes:(if trace then 1 else 4) ~trace (fun _ -> pass seed) in
  { attempted = List.length passes * volumes; failed = !failed; metrics = summarize ~trace passes }
