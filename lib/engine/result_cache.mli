(** Content-addressed on-disk cache of experiment result tables.

    A cache key is the full content identity of a result — experiment id,
    configuration fingerprint and workload set (see
    [Trips_harness.Experiments]).  Entries live under one directory as
    [<md5(key)>.res] files carrying a format tag and the verbatim key, so a
    digest collision or foreign file reads as a miss, never as a wrong
    table.  Writes go through a temp file, fsync, then rename, so
    concurrent writers (workers, or whole parallel runs sharing a cache
    dir) are safe and a crashed or killed process can never publish a
    torn entry; temp files such a crash abandons are swept on the next
    {!open_}. *)

type t

val mkdir_p : string -> unit
(** [mkdir -p]: create a directory and its missing parents. *)

val open_ : string -> t
(** Open (creating directories as needed) a cache rooted at the path,
    sweeping stale [*.tmp] files left by crashed writers. *)

val dir : t -> string

val find : t -> key:string -> Trips_util.Table.t option
(** [None] on absence, format/version skew, or any read error. *)

val store : t -> key:string -> Trips_util.Table.t -> unit
(** Best-effort: an unwritable cache never fails the run. *)

val digest : string -> string
(** Hex digest used to address a key's entry (exposed for tooling). *)

val path : t -> key:string -> string
(** On-disk location an entry for [key] would occupy. *)

val key : parts:string list -> string
(** Canonical content-addressed key from identity parts (experiment or
    verb id, configuration fingerprint, workload name, ...).  The
    encoding is injective — distinct part lists can never collide — so
    every producer of cache keys (batch engine, service front door) can
    share it. *)
