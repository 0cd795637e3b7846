/* The snapshot writer: a job's system calls, and the thread that makes
   them; and the CRC-32 of WAL records and snapshot images.

   A job lives here, in C memory: the image's bytes, its paths, the
   segment to fsync first and the files to delete last.  The image's
   checksum is taken by the step that writes it, so the request thread
   only copies the bytes.  Its steps run one at a time on the calling
   thread ([entangle_durable_job_step]), or on a writer thread of their
   own ([entangle_durable_job_start]); both run the same [step].
   That thread is a plain POSIX thread that never enters the OCaml
   runtime.  An OCaml thread would share the runtime lock with the
   request thread, which then waits each time the writer starts, or
   comes back from a system call and takes the lock back.  The request
   thread learns that the writer has ended from a flag under a mutex
   ([entangle_durable_job_poll]), then joins it.  A failed step ends
   the job; [entangle_durable_job_raise] raises its error as
   [Unix.Unix_error], like the Unix library. */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>
#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

/* ------------------------------ CRC32 ------------------------------ */

/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) by slicing by
   eight: [crc_table[k][b]] is the CRC of byte [b] followed by [k] zero
   bytes, so one step folds eight bytes with eight independent lookups
   instead of a chain of eight.  The writer thread and the request
   thread both use it, so the table is built once under [pthread_once]. */
static uint32_t crc_table[8][256];
static pthread_once_t crc_once = PTHREAD_ONCE_INIT;

static void crc_init(void)
{
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    crc_table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t p = crc_table[k - 1][n];
      crc_table[k][n] = (p >> 8) ^ crc_table[0][p & 0xff];
    }
}

static uint32_t le32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

/* Continue the checksum [crc] over [n] bytes at [p]. */
static uint32_t crc32_update(uint32_t crc, const unsigned char *p, size_t n)
{
  pthread_once(&crc_once, crc_init);
  uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = c ^ le32(p), hi = le32(p + 4);
    c = crc_table[7][lo & 0xff] ^ crc_table[6][(lo >> 8) & 0xff]
        ^ crc_table[5][(lo >> 16) & 0xff] ^ crc_table[4][lo >> 24]
        ^ crc_table[3][hi & 0xff] ^ crc_table[2][(hi >> 8) & 0xff]
        ^ crc_table[1][(hi >> 16) & 0xff] ^ crc_table[0][hi >> 24];
  }
  while (n-- > 0) c = crc_table[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  return ~c;
}

/* [entangle_durable_crc32 crc b off len]: [crc] continued over
   [len] bytes of [b] from [off].  The caller checks the bounds; no
   allocation, so OCaml calls it [@@noalloc]. */
CAMLprim value entangle_durable_crc32(value v_crc, value v_b, value v_off,
                                      value v_len)
{
  return Val_long(crc32_update((uint32_t)Long_val(v_crc),
                               Bytes_val(v_b) + Long_val(v_off),
                               (size_t)Long_val(v_len)));
}

/* ------------------------------- Jobs ------------------------------ */

/* The steps, in order; the OCaml [step] type numbers them the same. */
enum { SYNC_WAL, WRITE_TMP, RENAME, SYNC_DIR, PRUNE, DONE };

struct job {
  char *dir, *tmp, *path;
  char *image;  /* the snapshot file's bytes: header, payload, CRC */
  size_t len, header_len;
  int wal_fd;   /* the segment to fsync first, or -1 */
  char **victims;  /* paths [PRUNE] deletes; NULL skips the step */
  int nvictims;
  int next;
  int failed;   /* the step that failed, or -1 */
  const char *fn;  /* the system call that failed */
  int err;
  int64_t write_ns;  /* time spent in the steps */
  pthread_t thread;
  pthread_mutex_t lock;  /* guards [ended] */
  int started, ended, joined;
};

#define Job_val(v) (*((struct job **)Data_custom_val(v)))

static void job_finalize(value v)
{
  struct job *j = Job_val(v);
  if (j == NULL) return;
  /* The OCaml side waits for a started writer before it lets go of
     the job; this join only guards the memory the writer uses. */
  if (j->started && !j->joined) pthread_join(j->thread, NULL);
  pthread_mutex_destroy(&j->lock);
  caml_stat_free(j->dir);
  caml_stat_free(j->tmp);
  caml_stat_free(j->path);
  caml_stat_free(j->image);
  for (int i = 0; i < j->nvictims; i++) caml_stat_free(j->victims[i]);
  caml_stat_free(j->victims);
  caml_stat_free(j);
}

static struct custom_operations job_ops = {
  "entangle.durable.job", job_finalize,
  custom_compare_default, custom_hash_default,
  custom_serialize_default, custom_deserialize_default,
  custom_compare_ext_default, custom_fixed_length_default
};

/* [entangle_durable_job_create dir tmp path image header_len len wal
   victims]: the job that writes the first [len] bytes of [image] (a
   header of [header_len] bytes, then the payload) and the payload's
   CRC-32 (four bytes, little-endian) to [tmp], renames it to [path] and
   fsyncs [dir]; first fsyncs [wal] when given, and last deletes the
   paths of [victims] when given. */
CAMLprim value entangle_durable_job_create(value v_dir, value v_tmp, value v_path,
                                           value v_image, value v_header_len,
                                           value v_len, value v_wal,
                                           value v_victims)
{
  CAMLparam5(v_dir, v_tmp, v_path, v_image, v_header_len);
  CAMLxparam3(v_len, v_wal, v_victims);
  CAMLlocal2(l, res);
  struct job *j = caml_stat_calloc_noexc(1, sizeof *j);
  if (j == NULL) caml_raise_out_of_memory();
  res = caml_alloc_custom(&job_ops, sizeof(struct job *), 0, 1);
  Job_val(res) = j;
  j->failed = -1;
  j->next = DONE;
  pthread_mutex_init(&j->lock, NULL);
  j->dir = caml_stat_strdup(String_val(v_dir));
  j->tmp = caml_stat_strdup(String_val(v_tmp));
  j->path = caml_stat_strdup(String_val(v_path));
  j->header_len = (size_t)Long_val(v_header_len);
  size_t len = (size_t)Long_val(v_len);
  j->len = len + 4;
  j->image = caml_stat_alloc(j->len);
  memcpy(j->image, Bytes_val(v_image), len);
  j->wal_fd = Is_block(v_wal) ? Int_val(Field(v_wal, 0)) : -1;
  if (Is_block(v_victims)) {
    int n = 0;
    for (l = Field(v_victims, 0); l != Val_emptylist; l = Field(l, 1)) n++;
    j->victims = caml_stat_calloc_noexc(n > 0 ? n : 1, sizeof(char *));
    if (j->victims == NULL) caml_raise_out_of_memory();
    for (l = Field(v_victims, 0); l != Val_emptylist; l = Field(l, 1))
      j->victims[j->nvictims++] = caml_stat_strdup(String_val(Field(l, 0)));
  }
  j->next = j->wal_fd >= 0 ? SYNC_WAL : WRITE_TMP;
  CAMLreturn(res);
}

CAMLprim value entangle_durable_job_create_bytecode(value *argv, int argn)
{
  (void)argn;
  return entangle_durable_job_create(argv[0], argv[1], argv[2], argv[3],
                                     argv[4], argv[5], argv[6], argv[7]);
}

static int write_file(struct job *j)
{
  size_t n = j->len - j->header_len - 4;
  uint32_t crc = crc32_update(0, (unsigned char *)j->image + j->header_len, n);
  for (int k = 0; k < 4; k++) j->image[j->len - 4 + k] = (char)(crc >> (8 * k));
  int fd = open(j->tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    j->fn = "open";
    return -1;
  }
  for (size_t off = 0; off < j->len;) {
    ssize_t w = write(fd, j->image + off, j->len - off);
    if (w >= 0)
      off += (size_t)w;
    else if (errno != EINTR) {
      j->fn = "write";
      goto fail;
    }
  }
  if (fsync(fd) != 0) {
    j->fn = "fsync";
    goto fail;
  }
  if (close(fd) != 0) {
    j->fn = "close";
    return -1;
  }
  return 0;
fail:;
  int err = errno;
  close(fd);
  errno = err;
  return -1;
}

/* A directory that cannot be opened is skipped: some filesystems
   refuse to open one. */
static int fsync_dir(const char *dir, const char **fn)
{
  int fd = open(dir, O_RDONLY);
  if (fd < 0) return 0;
  int rc = fsync(fd);
  int err = errno;
  close(fd);
  errno = err;
  if (rc != 0) *fn = "fsync";
  return rc;
}

/* End the job at its next step with [errno] from the call [j->fn]. */
static void fail(struct job *j)
{
  j->err = errno;
  j->failed = j->next;
  /* Never leave a half-written image behind. */
  if (j->next == WRITE_TMP || j->next == RENAME) unlink(j->tmp);
  j->next = DONE;
}

/* Run the next step.  No runtime access: called with the lock released. */
static void step(struct job *j)
{
  int s = j->next, rc = 0;
  switch (s) {
  case SYNC_WAL:
    rc = fsync(j->wal_fd);
    if (rc != 0) j->fn = "fsync";
    break;
  case WRITE_TMP:
    rc = write_file(j);
    break;
  case RENAME:
    rc = rename(j->tmp, j->path);
    if (rc != 0) j->fn = "rename";
    break;
  case SYNC_DIR:
    rc = fsync_dir(j->dir, &j->fn);
    break;
  case PRUNE:
    for (int i = 0; i < j->nvictims && rc == 0; i++) {
      rc = unlink(j->victims[i]);
      if (rc != 0) j->fn = "unlink";
    }
    break;
  default:
    return;
  }
  if (rc != 0)
    fail(j);
  else
    j->next = (s == SYNC_DIR && j->victims == NULL) ? DONE : s + 1;
}

/* The system call each step makes first, which a failure from the test
   seam names. */
static const char *const first_call[] = { "fsync", "open", "rename", "fsync",
                                          "unlink" };

/* [entangle_durable_job_fail job err]: the next step, which the caller
   knows is not [DONE], fails with [err] in place of its system calls. */
CAMLprim value entangle_durable_job_fail(value v_job, value v_err)
{
  struct job *j = Job_val(v_job);
  errno = caml_unix_code_of_unix_error(v_err);
  j->fn = first_call[j->next];
  fail(j);
  return Val_unit;
}

static int64_t now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

static void run(struct job *j, int all)
{
  int64_t t0 = now_ns();
  do step(j); while (all && j->next != DONE);
  j->write_ns += now_ns() - t0;
}

CAMLprim value entangle_durable_job_step(value v_job)
{
  struct job *j = Job_val(v_job);
  caml_enter_blocking_section();
  run(j, 0);
  caml_leave_blocking_section();
  return Val_unit;
}

static void *writer(void *arg)
{
  struct job *j = arg;
  run(j, 1);
  pthread_mutex_lock(&j->lock);
  j->ended = 1;
  pthread_mutex_unlock(&j->lock);
  return NULL;
}

/* Start the writer thread; [false] when none could be started. */
CAMLprim value entangle_durable_job_start(value v_job)
{
  struct job *j = Job_val(v_job);
  j->started = pthread_create(&j->thread, NULL, writer, j) == 0;
  return Val_bool(j->started);
}

static void join(struct job *j)
{
  if (j->started && !j->joined) {
    pthread_join(j->thread, NULL);
    j->joined = 1;
  }
}

/* Whether the job has ended, joining its writer if it has; never
   blocks for longer than the writer takes to return. */
CAMLprim value entangle_durable_job_poll(value v_job)
{
  struct job *j = Job_val(v_job);
  if (!j->started) return Val_bool(j->next == DONE);
  pthread_mutex_lock(&j->lock);
  int ended = j->ended;
  pthread_mutex_unlock(&j->lock);
  if (ended) join(j);
  return Val_bool(ended);
}

/* Wait for a started writer to end. */
CAMLprim value entangle_durable_job_wait(value v_job)
{
  struct job *j = Job_val(v_job);
  caml_enter_blocking_section();
  join(j);
  caml_leave_blocking_section();
  return Val_unit;
}

CAMLprim value entangle_durable_job_started(value v_job)
{
  return Val_bool(Job_val(v_job)->started);
}

CAMLprim value entangle_durable_job_write_ns(value v_job)
{
  return Val_long(Job_val(v_job)->write_ns);
}

CAMLprim value entangle_durable_job_next(value v_job)
{
  return Val_int(Job_val(v_job)->next);
}

/* The step that failed, or [DONE] when none did. */
CAMLprim value entangle_durable_job_failed(value v_job)
{
  struct job *j = Job_val(v_job);
  return Val_int(j->failed >= 0 ? j->failed : DONE);
}

/* Raise the failed step's error; nothing when no step failed. */
CAMLprim value entangle_durable_job_raise(value v_job)
{
  CAMLparam1(v_job);
  CAMLlocal1(v_arg);
  struct job *j = Job_val(v_job);
  if (j->failed >= 0) {
    const char *arg = j->failed == SYNC_WAL ? "wal"
                      : j->failed == SYNC_DIR ? j->dir
                      : j->failed == WRITE_TMP ? j->tmp
                      : j->path;
    v_arg = caml_copy_string(arg);
    errno = j->err;
    caml_uerror(j->fn, v_arg);
  }
  CAMLreturn(Val_unit);
}
