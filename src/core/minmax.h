#ifndef CSJ_CORE_MINMAX_H_
#define CSJ_CORE_MINMAX_H_

#include "core/community.h"
#include "core/encoding.h"
#include "core/join_options.h"
#include "core/join_result.h"

namespace csj {

/// Ap-MinMax (paper Algorithm "Ap-MinMax", Figure 2).
///
/// B users are encoded to (encoded_id, part sums) sorted ascending by
/// encoded_id; A users to (encoded_min/max, part ranges) sorted ascending
/// by encoded_min. The pairing double loop then emits the five events:
///  * MIN PRUNE  — encoded_id < encoded_min: no current or later a can
///    match this b (ranges only grow), so move to the next b;
///  * MAX PRUNE  — encoded_id > encoded_max: no current or later b can
///    match this a; while `skip` is still active (no comparison has
///    happened yet for this b) the global `offset` permanently skips it;
///  * NO OVERLAP — some part sum falls outside the matching range, so the
///    d-dimensional comparison is skipped;
///  * NO MATCH / MATCH — full comparison ran. A MATCH commits the pair
///    (the approximate rule), removes a from further consideration and
///    moves to the next b.
JoinResult ApMinMaxJoin(const Community& b, const Community& a,
                        const JoinOptions& options);

/// Ex-MinMax (paper Algorithm "Ex-MinMax", Figure 3).
///
/// Identical filtering to Ap-MinMax, but a MATCH records the candidate
/// pair and keeps scanning so ALL matches of the current b are found.
/// `maxV` tracks the largest encoded_max over the A users matched in the
/// open segment. When the current b's scan ends and the NEXT b's
/// encoded_id exceeds maxV, no later b can reach any matched a (their ids
/// only grow past every matched encoded_max) and no collected b can reach
/// any later a (it finished its scan), so the segment is closed: the
/// configured matcher (paper: CSF) resolves it to one-to-one pairs and the
/// buffers reset. This yields the same final match count as Ex-Baseline's
/// single global CSF call while keeping each CSF input small.
JoinResult ExMinMaxJoin(const Community& b, const Community& a,
                        const JoinOptions& options);

/// The join kernels themselves, run on encodings the caller already
/// holds: `encd_b` must encode `b` and `encd_a` must encode `a` under
/// (options.eps, options.encoding_parts), as the catalog's resident
/// entry encodings do for its warm parameters. The overloads above fetch
/// (options.cache) or build the two encodings and call these, so both
/// forms return the same pairs and counters; only the cache accounting
/// and `seconds` of the lookup belong to the Community-only form.
JoinResult ApMinMaxJoin(const Community& b, const Community& a,
                        const EncodedB& encd_b, const EncodedA& encd_a,
                        const JoinOptions& options);
JoinResult ExMinMaxJoin(const Community& b, const Community& a,
                        const EncodedB& encd_b, const EncodedA& encd_a,
                        const JoinOptions& options);

}  // namespace csj

#endif  // CSJ_CORE_MINMAX_H_
