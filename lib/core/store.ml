module Serde = Repro_util.Serde
module Persist = Repro_block.Persist
module Fs = Repro_wafl.Fs

let magic = "RSTORE1"

let write_to oc contents =
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* A fresh sibling of [path], created with the permissions [open_out]
   would give [path] itself. *)
let open_temp =
  let rng = lazy (Random.State.make_self_init ()) in
  let rec attempt path tries =
    let tmp =
      Printf.sprintf "%s.%06x.tmp" path (Random.State.bits (Lazy.force rng) land 0xffffff)
    in
    match open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o666 tmp with
    | oc -> (tmp, oc)
    | exception Sys_error _ when tries > 1 -> attempt path (tries - 1)
  in
  fun path -> attempt path 100

let write_atomic path contents =
  if Sys.file_exists path && not (Sys.is_regular_file path) then
    write_to (open_out_bin path) contents
  else begin
    let tmp, oc = open_temp path in
    match
      write_to oc contents;
      Sys.rename tmp path
    with
    | () -> ()
    | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  end

let save ~path engine =
  Fs.cp (Engine.fs engine);
  let w = Serde.writer ~initial_size:(1 lsl 20) () in
  Serde.write_fixed w magic;
  Persist.write w (Fs.volume (Engine.fs engine));
  Engine.save w engine;
  write_atomic path (Serde.contents w)

let load ?cpu ?costs ~path () =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let r = Serde.reader data in
  Serde.expect_magic r magic;
  let vol = Persist.read r in
  let config =
    match (cpu, costs) with
    | None, None -> Fs.default_config ()
    | _ ->
      {
        (Fs.default_config ()) with
        Fs.cpu;
        costs = (match costs with Some c -> c | None -> Repro_sim.Cost.f630);
      }
  in
  let fs = Fs.mount ~config vol in
  Engine.load ?cpu ?costs r ~fs
