#ifndef TENSORDASH_SERVICE_PROTOCOL_HH_
#define TENSORDASH_SERVICE_PROTOCOL_HH_

/**
 * @file
 * Wire protocol of the sweep service (td-sweepd / td-sweep): length-
 * prefixed, versioned frames over a Unix-domain stream socket.
 *
 * Every frame is
 *
 *   u32 magic ("TDSP")  u32 version  u8 type  u32 length  payload
 *
 * written little-endian through the same ByteWriter/ByteReader pair
 * the shard files use, so truncation and corruption fail parsing
 * instead of misreading.  The version covers the frame layout AND
 * every payload layout: any incompatible change bumps it, and both
 * ends reject mismatched versions up front rather than guessing.
 *
 * A client session is one request/response exchange:
 *
 *   client --> JobRequest (a serialized JobSpec)
 *   server --> Progress*  (zero or more, as the job advances)
 *   server --> JobResult  (a serialized complete SweepResult)
 *          |or Error      (human-readable reason; terminates the job)
 *
 * The server never reads again after the JobRequest, and the client
 * must read until JobResult or Error.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"

namespace tensordash {
namespace service {

/** Frame magic ("TDSP" little-endian). */
inline constexpr uint32_t kProtocolMagic = 0x50534454;

/**
 * Protocol version, covering the frame header and every message
 * payload.  v1: JobRequest/Progress/JobResult/Error as documented
 * above.  Note the JobResult payload embeds a SweepResult, whose own
 * layout is pinned by kResultFormatVersion — a result-format bump
 * alone does not change the protocol, it just changes which blobs the
 * embedded parser accepts.
 */
inline constexpr uint32_t kProtocolVersion = 1;

/** Upper bound on a frame payload: far above any real sweep blob, low
 * enough that a corrupt length cannot drive a giant allocation. */
inline constexpr uint32_t kMaxFrameBytes = 256u << 20;

enum class MsgType : uint8_t
{
    JobRequest = 1,
    Progress = 2,
    JobResult = 3,
    Error = 4,
};

/** One received frame (type + raw payload bytes). */
struct Frame
{
    MsgType type = MsgType::Error;
    std::vector<uint8_t> payload;
};

/**
 * Write one frame to @p fd, restarting on EINTR and suppressing
 * SIGPIPE (a dead peer returns false instead of killing the daemon).
 */
bool sendFrame(int fd, MsgType type,
               const std::vector<uint8_t> &payload);

/**
 * Read one frame from @p fd.  False on EOF, a short read, a bad
 * magic/version, or an oversized length — the caller treats all of
 * them as a dead or hostile peer and closes.
 */
bool recvFrame(int fd, Frame *out);

/**
 * Bind and listen on a Unix-domain stream socket at @p path,
 * unlinking any stale socket file first.  Returns the listening fd,
 * or -1 with a warning (path too long for sockaddr_un, bind/listen
 * failure).
 */
int listenUnix(const std::string &path);

/** Connect to the daemon at @p path; -1 on failure. */
int connectUnix(const std::string &path);

/** Payload of a Progress frame: job-level counters so a client can
 * tail a long sweep (totals first, then the moving parts). */
struct ProgressMsg
{
    uint64_t total_cells = 0;  ///< op cells in the job's grid
    uint64_t warm_cells = 0;   ///< served straight from the cache
    uint64_t done_tasks = 0;   ///< layer slots finished so far
    uint64_t total_tasks = 0;  ///< layer slots the job owns
    uint64_t simulated = 0;    ///< cells simulated so far
    uint32_t shards_total = 0; ///< worker shards planned
    uint32_t shards_done = 0;  ///< worker shards merged

    void serialize(ByteWriter &w) const;
    bool deserialize(ByteReader &r);
};

/** Build an Error payload / parse one. */
std::vector<uint8_t> errorPayload(const std::string &message);
std::string parseErrorPayload(const std::vector<uint8_t> &payload);

} // namespace service
} // namespace tensordash

#endif // TENSORDASH_SERVICE_PROTOCOL_HH_
