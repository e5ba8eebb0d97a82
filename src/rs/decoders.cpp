#include "rs/decoders.hpp"

#include "common/log.hpp"
#include "gf256/gf256.hpp"

namespace gpuecc {

namespace {

/** Location estimate from one syndrome pair: dlog(sb/sa) mod 255. */
int
pairLocation(std::uint8_t sa, std::uint8_t sb)
{
    int p = gf256::dlog(sb) - gf256::dlog(sa);
    if (p < 0)
        p += 255;
    return p;
}

constexpr RsFix kDue{RsDecode::Status::due, 0, {0, 0}, {0, 0}};
constexpr RsFix kClean{RsDecode::Status::clean, 0, {0, 0}, {0, 0}};

bool
allZero(const std::vector<std::uint8_t>& v)
{
    for (std::uint8_t x : v) {
        if (x != 0)
            return false;
    }
    return true;
}

} // namespace

RsDecode
decodeSscOneShot(const RsCode& code,
                 const std::vector<std::uint8_t>& received)
{
    require(code.r() == 2, "decodeSscOneShot expects an r=2 code");
    const auto s = code.syndromes(received);
    if (allZero(s))
        return {RsDecode::Status::clean, received, {}};
    if (s[0] == 0 || s[1] == 0)
        return {RsDecode::Status::due, received, {}};
    const int p = pairLocation(s[0], s[1]);
    if (p >= code.n())
        return {RsDecode::Status::due, received, {}};
    RsDecode out{RsDecode::Status::corrected, received, {p}};
    out.word[p] = gf256::add(out.word[p], s[0]);
    return out;
}

RsDecode
decodeSscDsdPlus(const RsCode& code,
                 const std::vector<std::uint8_t>& received)
{
    require(code.r() == 4, "decodeSscDsdPlus expects an r=4 code");
    const auto s = code.syndromes(received);
    if (allZero(s))
        return {RsDecode::Status::clean, received, {}};
    // A true single-symbol error e at p gives S_j = e * alpha^(jp),
    // all nonzero. Each check-byte pair independently locates the
    // error; correction requires unanimous agreement on a valid
    // position (the paper's one-shot correction sanity analogue).
    if (s[0] == 0 || s[1] == 0 || s[2] == 0 || s[3] == 0)
        return {RsDecode::Status::due, received, {}};
    const int p0 = pairLocation(s[0], s[1]);
    const int p1 = pairLocation(s[1], s[2]);
    const int p2 = pairLocation(s[2], s[3]);
    if (p0 != p1 || p1 != p2 || p0 >= code.n())
        return {RsDecode::Status::due, received, {}};
    RsDecode out{RsDecode::Status::corrected, received, {p0}};
    out.word[p0] = gf256::add(out.word[p0], s[0]);
    return out;
}

RsDecode
decodeDsc(const RsCode& code, const std::vector<std::uint8_t>& received)
{
    require(code.r() == 4, "decodeDsc expects an r=4 code");
    const auto s = code.syndromes(received);
    if (allZero(s))
        return {RsDecode::Status::clean, received, {}};

    // Single-error attempt first (PGZ with nu = 1).
    if (s[0] != 0 && s[1] != 0 && s[2] != 0 && s[3] != 0) {
        const int p0 = pairLocation(s[0], s[1]);
        const int p1 = pairLocation(s[1], s[2]);
        const int p2 = pairLocation(s[2], s[3]);
        if (p0 == p1 && p1 == p2 && p0 < code.n()) {
            RsDecode out{RsDecode::Status::corrected, received, {p0}};
            out.word[p0] = gf256::add(out.word[p0], s[0]);
            return out;
        }
    }

    // Two-error attempt: solve for the error locator
    // Lambda(x) = 1 + sigma1*x + sigma2*x^2 from
    //   [S0 S1] [sigma2]   [S2]
    //   [S1 S2] [sigma1] = [S3].
    const std::uint8_t det = gf256::add(gf256::mul(s[0], s[2]),
                                        gf256::mul(s[1], s[1]));
    if (det != 0) {
        const std::uint8_t sigma2 = gf256::div(
            gf256::add(gf256::mul(s[1], s[3]), gf256::mul(s[2], s[2])),
            det);
        const std::uint8_t sigma1 = gf256::div(
            gf256::add(gf256::mul(s[0], s[3]), gf256::mul(s[1], s[2])),
            det);
        // Chien search over the valid positions.
        std::vector<int> roots;
        for (int p = 0; p < code.n() && roots.size() <= 2; ++p) {
            const std::uint8_t xinv = gf256::alphaPow(-p);
            const std::uint8_t val = gf256::add(
                gf256::add(1, gf256::mul(sigma1, xinv)),
                gf256::mul(sigma2, gf256::mul(xinv, xinv)));
            if (val == 0)
                roots.push_back(p);
        }
        if (roots.size() == 2) {
            const std::uint8_t x1 = gf256::alphaPow(roots[0]);
            const std::uint8_t x2 = gf256::alphaPow(roots[1]);
            // e1 + e2 = S0; e1*X1 + e2*X2 = S1.
            const std::uint8_t e1 = gf256::div(
                gf256::add(s[1], gf256::mul(s[0], x2)),
                gf256::add(x1, x2));
            const std::uint8_t e2 = gf256::add(s[0], e1);
            if (e1 != 0 && e2 != 0) {
                RsDecode out{RsDecode::Status::corrected, received,
                             {roots[0], roots[1]}};
                out.word[roots[0]] = gf256::add(out.word[roots[0]], e1);
                out.word[roots[1]] = gf256::add(out.word[roots[1]], e2);
                // Guard against >2-error patterns that alias into a
                // solvable system: the correction must clear every
                // syndrome.
                if (code.isCodeword(out.word))
                    return out;
            }
        }
    }
    return {RsDecode::Status::due, received, {}};
}

RsDecode
decodeWithErasures(const RsCode& code,
                   const std::vector<std::uint8_t>& received,
                   const std::vector<int>& erasures)
{
    const int e = static_cast<int>(erasures.size());
    require(e >= 1 && e <= code.r(),
            "decodeWithErasures: erasure count out of range");
    for (int pos : erasures) {
        require(pos >= 0 && pos < code.n(),
                "decodeWithErasures: bad erasure position");
    }

    // Solve V * m = S for the erasure magnitudes, where
    // V[j][i] = alpha^(j * pos_i), using the first e syndromes.
    const auto s = code.syndromes(received);
    std::vector<std::uint8_t> m(e * (e + 1), 0); // augmented, row-major
    for (int j = 0; j < e; ++j) {
        for (int i = 0; i < e; ++i)
            m[j * (e + 1) + i] = gf256::alphaPow(j * erasures[i]);
        m[j * (e + 1) + e] = s[j];
    }
    for (int col = 0; col < e; ++col) {
        int pivot = -1;
        for (int row = col; row < e; ++row) {
            if (m[row * (e + 1) + col] != 0) {
                pivot = row;
                break;
            }
        }
        // A Vandermonde block on distinct positions is nonsingular.
        require(pivot >= 0, "decodeWithErasures: singular system");
        for (int c = 0; c <= e; ++c)
            std::swap(m[pivot * (e + 1) + c], m[col * (e + 1) + c]);
        const std::uint8_t inv = gf256::inv(m[col * (e + 1) + col]);
        for (int c = 0; c <= e; ++c)
            m[col * (e + 1) + c] = gf256::mul(m[col * (e + 1) + c], inv);
        for (int row = 0; row < e; ++row) {
            if (row == col)
                continue;
            const std::uint8_t f = m[row * (e + 1) + col];
            if (f == 0)
                continue;
            for (int c = 0; c <= e; ++c) {
                m[row * (e + 1) + c] = gf256::add(
                    m[row * (e + 1) + c],
                    gf256::mul(f, m[col * (e + 1) + c]));
            }
        }
    }

    RsDecode out{RsDecode::Status::corrected, received, {}};
    bool any_change = false;
    for (int i = 0; i < e; ++i) {
        const std::uint8_t magnitude = m[i * (e + 1) + e];
        if (magnitude != 0) {
            out.word[erasures[i]] =
                gf256::add(out.word[erasures[i]], magnitude);
            out.error_positions.push_back(erasures[i]);
            any_change = true;
        }
    }
    // The fill used e syndromes; the remaining r - e provide residual
    // detection against additional (non-erasure) errors.
    if (!code.isCodeword(out.word))
        return {RsDecode::Status::due, received, {}};
    if (!any_change)
        out.status = RsDecode::Status::clean;
    return out;
}

RsFix
fixSscOneShot(int n, const std::uint8_t* s)
{
    if (s[0] == 0 && s[1] == 0)
        return kClean;
    if (s[0] == 0 || s[1] == 0)
        return kDue;
    const int p = pairLocation(s[0], s[1]);
    if (p >= n)
        return kDue;
    return {RsDecode::Status::corrected, 1, {p, 0}, {s[0], 0}};
}

RsFix
fixSscDsdPlus(int n, const std::uint8_t* s)
{
    if (s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0)
        return kClean;
    if (s[0] == 0 || s[1] == 0 || s[2] == 0 || s[3] == 0)
        return kDue;
    const int p0 = pairLocation(s[0], s[1]);
    const int p1 = pairLocation(s[1], s[2]);
    const int p2 = pairLocation(s[2], s[3]);
    if (p0 != p1 || p1 != p2 || p0 >= n)
        return kDue;
    return {RsDecode::Status::corrected, 1, {p0, 0}, {s[0], 0}};
}

RsFix
fixDsc(int n, const std::uint8_t* s)
{
    if (s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0)
        return kClean;

    // Single-error attempt first (PGZ with nu = 1).
    if (s[0] != 0 && s[1] != 0 && s[2] != 0 && s[3] != 0) {
        const int p0 = pairLocation(s[0], s[1]);
        const int p1 = pairLocation(s[1], s[2]);
        const int p2 = pairLocation(s[2], s[3]);
        if (p0 == p1 && p1 == p2 && p0 < n)
            return {RsDecode::Status::corrected, 1, {p0, 0},
                    {s[0], 0}};
    }

    // Two-error attempt (see decodeDsc for the derivation).
    const std::uint8_t det = gf256::add(gf256::mul(s[0], s[2]),
                                        gf256::mul(s[1], s[1]));
    if (det != 0) {
        const std::uint8_t sigma2 = gf256::div(
            gf256::add(gf256::mul(s[1], s[3]), gf256::mul(s[2], s[2])),
            det);
        const std::uint8_t sigma1 = gf256::div(
            gf256::add(gf256::mul(s[0], s[3]), gf256::mul(s[1], s[2])),
            det);
        int roots[3];
        int num_roots = 0;
        for (int p = 0; p < n && num_roots <= 2; ++p) {
            const std::uint8_t xinv = gf256::alphaPow(-p);
            const std::uint8_t val = gf256::add(
                gf256::add(1, gf256::mul(sigma1, xinv)),
                gf256::mul(sigma2, gf256::mul(xinv, xinv)));
            if (val == 0)
                roots[num_roots++] = p;
        }
        if (num_roots == 2) {
            const std::uint8_t x1 = gf256::alphaPow(roots[0]);
            const std::uint8_t x2 = gf256::alphaPow(roots[1]);
            const std::uint8_t e1 = gf256::div(
                gf256::add(s[1], gf256::mul(s[0], x2)),
                gf256::add(x1, x2));
            const std::uint8_t e2 = gf256::add(s[0], e1);
            if (e1 != 0 && e2 != 0) {
                // The oracle re-checks every syndrome of the patched
                // word. S_0 and S_1 are satisfied by construction of
                // (e1, e2); demanding the fix also reproduce S_2 and
                // S_3 is the same guard without touching the word.
                bool consistent = true;
                for (int j = 2; j < 4; ++j) {
                    const std::uint8_t expect = gf256::add(
                        gf256::mul(e1, gf256::alphaPow(j * roots[0])),
                        gf256::mul(e2, gf256::alphaPow(j * roots[1])));
                    if (expect != s[j]) {
                        consistent = false;
                        break;
                    }
                }
                if (consistent)
                    return {RsDecode::Status::corrected, 2,
                            {roots[0], roots[1]}, {e1, e2}};
            }
        }
    }
    return kDue;
}

} // namespace gpuecc
