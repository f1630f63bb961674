module Table = Trips_util.Table

(* Bump when the stored payload shape changes; stale entries then read as
   misses instead of deserialization errors. *)
let format = "trips-result-cache/1"

type t = { dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Crashed writers leave behind "<digest>.res.<pid>.tmp" files that no
   rename will ever consume; sweep them when the cache is (re)opened.  A
   *live* concurrent writer whose temp file is swept merely fails its
   rename, and store is best-effort, so the race is harmless. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      entries
  | exception Sys_error _ -> ()

let open_ dir =
  mkdir_p dir;
  sweep_tmp dir;
  { dir }

let dir t = t.dir

let digest key = Digest.to_hex (Digest.string key)

let path t ~key = Filename.concat t.dir (digest key ^ ".res")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t ~key =
  let file = path t ~key in
  if not (Sys.file_exists file) then None
  else
    try
      let (fmt, stored_key, payload) : string * string * string =
        Marshal.from_string (read_file file) 0
      in
      (* the digest names the file; the full key inside guards against
         collisions and foreign files *)
      if fmt = format && stored_key = key then Some (Table.deserialize payload)
      else None
    with _ -> None

let write_all fd data =
  let len = String.length data in
  let bytes = Bytes.unsafe_of_string data in
  let rec go off =
    if off < len then go (off + Unix.write fd bytes off (len - off))
  in
  go 0

let store t ~key table =
  let file = path t ~key in
  let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
  let data = Marshal.to_string (format, key, Table.serialize table) [] in
  try
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_all fd data;
        (* fsync before the rename: a daemon killed mid-write must never
           publish a torn entry under the final name *)
        Unix.fsync fd);
    (* rename within one directory is atomic: concurrent writers of the
       same key race harmlessly to identical content *)
    Sys.rename tmp file
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ())

(* Length-prefixing makes the join injective: no choice of parts can
   collide with a different split, whatever characters they contain. *)
let key ~parts =
  String.concat "/"
    (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts)
