(** One-file persistence for a whole simulated filer.

    A store file holds the volume image (sparse), the tape stackers with
    their cartridges, the catalog and the dumpdates database, so the
    [backupctl] command-line tool can operate on a filer across process
    invocations like any other stateful system. *)

val save : path:string -> Engine.t -> unit
(** Takes a consistency point first, then writes everything with
    {!write_atomic}. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [contents] to a fresh temporary
    file in [path]'s directory and renames it over [path], so a crash
    leaves either the old file whole or the new one, never a truncated
    mix. A [path] that exists but is not a regular file (a device such as
    [/dev/stdout], or a pipe) is written in place. *)

val load :
  ?cpu:Repro_sim.Resource.t -> ?costs:Repro_sim.Cost.t -> path:string -> unit -> Engine.t
(** Raises [Sys_error] on I/O problems, [Serde.Corrupt] or
    [Repro_wafl.Fs.Error] on a damaged store. *)
