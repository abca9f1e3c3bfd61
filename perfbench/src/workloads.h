/**
 * @file
 * The benchmark's three workloads and the client they share.
 *
 * Every workload draws its operands from a pool of kPoolSize
 * ciphertexts the client encrypted at set-up from the run's seed; the
 * server side only ever sees those generated ciphertexts. A request is
 * timed around run(); prepare() (operand copies) and
 * check() (result verification) run outside the timed interval.
 *
 * Spans recorded here wrap each public call into a layer and are named
 * "<layer>.<call>", so the traced run can attribute request wall time
 * to bfv / poly / pimhe (and, through the program's own spans, pim).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bfv/context.h"
#include "bfv/encryptor.h"
#include "bfv/evaluator.h"
#include "bfv/keys.h"
#include "bfv/params.h"
#include "common/rng.h"
#include "ntt/rns.h"
#include "obs/trace.h"
#include "pimhe/kernels.h"
#include "pimhe/orchestrator.h"

namespace perfbench {

using namespace pimhe;

constexpr std::size_t N = 4; //!< 128-bit coefficients, 109-bit q
using Ct = Ciphertext<N>;
constexpr unsigned kTasklets = 12;
constexpr std::size_t kPoolSize = 256;
constexpr std::uint64_t kPlainModulus = 257;

/** The paper's 128-bit parameter set at the given degree, t = 257. */
inline BfvParams<N>
benchParams(std::size_t degree)
{
    BfvParams<N> p = standardParams<N>().withDegree(degree);
    p.t = kPlainModulus;
    p.validate();
    return p;
}

/** Server-side PIM configuration: fast execution, every launch
 *  statically verified, host threads pinned (never read from the
 *  environment). */
inline pim::SystemConfig
serverConfig(std::size_t host_threads)
{
    pim::SystemConfig cfg;
    cfg.execMode = pim::ExecMode::Fast;
    cfg.verifyBeforeLaunch = true;
    cfg.hostThreads = host_threads;
    return cfg;
}

/** Independent random streams derived from the run's seed. */
enum class Stream : std::uint64_t
{
    Keys = 1,
    Plain = 2,
    Index = 3,
};

inline Rng
streamRng(std::uint64_t seed, Stream s)
{
    return Rng(seed * 0x9E3779B97F4A7C15ULL +
               static_cast<std::uint64_t>(s) * 0xD1B54A32D192ED03ULL);
}

/** Host wall spent inside one request, split by the layer called. */
struct RequestProbe
{
    double pimheMs = 0;   //!< inside pimhe public calls
    double bfvEvalMs = 0; //!< inside bfv Evaluator calls
    double convolveMs = 0;
    std::uint64_t convolves = 0;
    double decryptMs = 0;
    std::uint64_t decrypts = 0;
};

/** Run f() under a span named `span`, adding its wall time to `acc`. */
template <class F>
auto
timedCall(const char *span, double &acc, F &&f)
{
    obs::ScopedSpan s(obs::Tracer::global(), 0, span);
    const auto t0 = Clock::now();
    auto r = f();
    acc += msSince(t0);
    return r;
}

/**
 * The data owner: keys (RNS-NTT host engine), the plaintext pool and
 * its encryptions. Built once per set-up from the seed.
 */
class Client
{
  public:
    Client(std::size_t degree, std::uint64_t seed, bool relin_key)
        : ctx_(std::make_unique<BfvContext<N>>(benchParams(degree))),
          rng_(streamRng(seed, Stream::Keys))
    {
        ctx_->setConvolver(
            std::make_unique<RnsNttConvolver<N>>(ctx_->ring()));

        auto t0 = Clock::now();
        KeyGenerator<N> keygen(*ctx_, rng_);
        PublicKey<N> pk = keygen.makePublicKey();
        if (relin_key)
            rlk_ = keygen.makeRelinKey();
        keygenMs_ = msSince(t0);
        dec_.emplace(*ctx_, keygen.secretKey());
        enc_.emplace(*ctx_, std::move(pk), rng_);

        Rng plain_rng = streamRng(seed, Stream::Plain);
        plains_.reserve(kPoolSize);
        for (std::size_t i = 0; i < kPoolSize; ++i) {
            Plaintext pt(degree);
            for (auto &c : pt.coeffs)
                c = plain_rng.uniform(kPlainModulus);
            plains_.push_back(std::move(pt));
        }
        t0 = Clock::now();
        pool_.reserve(kPoolSize);
        for (const Plaintext &pt : plains_)
            pool_.push_back(enc_->encrypt(pt));
        encryptMsPerCt_ = msSince(t0) / kPoolSize;
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    const BfvContext<N> &ctx() const { return *ctx_; }
    const Ct &ct(std::size_t i) const { return pool_[i]; }
    const Plaintext &plain(std::size_t i) const { return plains_[i]; }
    const RelinKey<N> &relinKey() const { return rlk_; }
    double keygenMs() const { return keygenMs_; }
    double encryptMsPerCt() const { return encryptMsPerCt_; }

    /** Decrypt under a "bfv.decrypt" span, timed into the probe. */
    Plaintext
    decrypt(const Ct &ct, RequestProbe &probe) const
    {
        probe.decrypts += 1;
        return timedCall("bfv.decrypt", probe.decryptMs,
                         [&] { return dec_->decrypt(ct); });
    }

    /** Corrupt one coefficient so `ct` decrypts to a different
     *  message: coefficient 0 of c0 gains Delta, which shifts slot 0
     *  of the plaintext by one. */
    void
    corrupt(Ct &ct) const
    {
        ct.comps[0][0] = ctx_->ring().reducer().addMod(ct.comps[0][0],
                                                        ctx_->delta());
    }

  private:
    std::unique_ptr<BfvContext<N>> ctx_;
    Rng rng_;
    RelinKey<N> rlk_;
    std::optional<Decryptor<N>> dec_;
    std::optional<Encryptor<N>> enc_;
    std::vector<Plaintext> plains_;
    std::vector<Ct> pool_;
    double keygenMs_ = 0;
    double encryptMsPerCt_ = 0;
};

/**
 * ExactConvolver decorator timing every convolveCentered call of the
 * PimConvolver it owns (the "poly" layer as the evaluator sees it).
 */
class TimingConvolver final : public ExactConvolver<N>
{
  public:
    explicit TimingConvolver(std::unique_ptr<PimConvolver<N>> inner)
        : inner_(std::move(inner))
    {}

    std::vector<U256>
    convolveCentered(const Polynomial<N> &a,
                     const Polynomial<N> &b) const override
    {
        calls_ += 1;
        return timedCall("poly.convolve", ms_, [&] {
            return inner_->convolveCentered(a, b);
        });
    }

    std::string name() const override { return inner_->name(); }
    ConvolverUsage usage() const override { return inner_->usage(); }

    const PimConvolver<N> &inner() const { return *inner_; }
    double ms() const { return ms_; }
    std::uint64_t calls() const { return calls_; }

  private:
    std::unique_ptr<PimConvolver<N>> inner_;
    mutable double ms_ = 0;
    mutable std::uint64_t calls_ = 0;
};

/** One workload: a request shape over a server built at a given host
 *  thread count. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Draw the next request's operands (outside the timed interval). */
    virtual void prepare(Rng &idx) = 0;

    /** The timed request. */
    virtual void run(RequestProbe &probe) = 0;

    /** Verify the last request's result (outside the timed interval;
     *  decrypts it records go to `probe`). */
    virtual bool check(RequestProbe &probe) = 0;

    /** Every DpuSet a request can launch on. */
    virtual std::vector<const pim::DpuSet *> dpuSets() const = 0;

    /** Footprints of one request's launches, in launch order. */
    virtual std::vector<analysis::KernelFootprint> footprints() const = 0;

    /** Corrupt one coefficient of the next request's returned
     *  ciphertext before it is checked (self-test of the checks). */
    void corruptNextResult() { corruptNext_ = true; }

  protected:
    bool
    takeCorruption()
    {
        const bool c = corruptNext_;
        corruptNext_ = false;
        return c;
    }

  private:
    bool corruptNext_ = false;
};

/** Vector-add kernel parameters for the pseudo-Mersenne 109-bit q. */
inline pimhe_kernels::VecKernelParams
vecParams(const BfvContext<N> &ctx, std::uint64_t a, std::uint64_t b,
          std::uint64_t out, std::uint64_t elems)
{
    const auto pm = PseudoMersenne<N>::of(ctx.ring().modulus());
    pimhe_kernels::VecKernelParams kp;
    kp.mramA = a;
    kp.mramB = b;
    kp.mramOut = out;
    kp.elems = static_cast<std::uint32_t>(elems);
    kp.limbs = N;
    kp.k = static_cast<std::uint32_t>(pm.k);
    kp.c = pm.c;
    for (std::size_t l = 0; l < N; ++l)
        kp.q[l] = ctx.ring().modulus().limb(l);
    return kp;
}

/**
 * Fig. 1a: one staged addCiphertextVectors call on 16 + 16 pool
 * ciphertexts at n = 4096 over 64 DPUs (upload, one launch, download).
 */
class VectorAddStaged final : public Workload
{
  public:
    static constexpr std::size_t kDegree = 4096;
    static constexpr std::size_t kCts = 16;
    static constexpr std::size_t kDpus = 64;

    VectorAddStaged(const Client &client, std::size_t host_threads)
        : client_(client), serverCtx_(client.ctx().params()),
          sys_(serverCtx_, serverConfig(host_threads), kDpus, kTasklets),
          host_(client.ctx())
    {}

    void
    prepare(Rng &idx) override
    {
        a_.clear();
        b_.clear();
        ia_.clear();
        ib_.clear();
        for (std::size_t i = 0; i < kCts; ++i) {
            ia_.push_back(idx.uniform(kPoolSize));
            ib_.push_back(idx.uniform(kPoolSize));
            a_.push_back(client_.ct(ia_.back()));
            b_.push_back(client_.ct(ib_.back()));
        }
        decryptIdx_ = idx.uniform(kCts);
    }

    void
    run(RequestProbe &probe) override
    {
        out_ = timedCall("pimhe.addCiphertextVectors", probe.pimheMs,
                         [&] { return sys_.addCiphertextVectors(a_, b_); });
        if (takeCorruption())
            client_.corrupt(out_[decryptIdx_]);
    }

    bool
    check(RequestProbe &probe) override
    {
        if (out_.size() != kCts)
            return false;
        for (std::size_t i = 0; i < kCts; ++i)
            if (host_.add(a_[i], b_[i]).comps != out_[i].comps)
                return false;
        const Plaintext pt = client_.decrypt(out_[decryptIdx_], probe);
        const Plaintext &pa = client_.plain(ia_[decryptIdx_]);
        const Plaintext &pb = client_.plain(ib_[decryptIdx_]);
        for (std::size_t i = 0; i < kDegree; ++i)
            if (pt.coeffs[i] != (pa.coeffs[i] + pb.coeffs[i]) % kPlainModulus)
                return false;
        return true;
    }

    std::vector<const pim::DpuSet *>
    dpuSets() const override
    {
        return {&sys_.dpuSet()};
    }

    std::vector<analysis::KernelFootprint>
    footprints() const override
    {
        const std::size_t per_dpu = (kCts * 2 * kDegree + kDpus - 1) / kDpus;
        const std::uint64_t arr = (per_dpu * N * 4 + 7) / 8 * 8;
        return {pimhe_kernels::vecKernelFootprint(
            vecParams(client_.ctx(), 0, arr, 2 * arr, per_dpu),
            sys_.dpuSet().config().dpu, kTasklets, /*multiply=*/false)};
    }

  private:
    const Client &client_;
    BfvContext<N> serverCtx_;
    PimHeSystem<N> sys_;
    Evaluator<N> host_; //!< bit-exact reference
    std::vector<std::uint64_t> ia_, ib_;
    std::vector<Ct> a_, b_, out_;
    std::size_t decryptIdx_ = 0;
};

/**
 * Fig. 2a, full simulation: the encrypted survey sum of 64 pool
 * ciphertexts through the resident tree reduction (one upload, six
 * in-place folds, one download), then the analyst's decrypt and
 * decode into per-slot means.
 */
class MeanResident final : public Workload
{
  public:
    static constexpr std::size_t kDegree = 4096;
    static constexpr std::size_t kUsers = 64;
    static constexpr std::size_t kDpus = 64;

    MeanResident(const Client &client, std::size_t host_threads)
        : client_(client), serverCtx_(client.ctx().params()),
          sys_(serverCtx_, serverConfig(host_threads), kDpus, kTasklets)
    {}

    void
    prepare(Rng &idx) override
    {
        idx_.clear();
        cts_.clear();
        for (std::size_t i = 0; i < kUsers; ++i) {
            idx_.push_back(idx.uniform(kPoolSize));
            cts_.push_back(client_.ct(idx_.back()));
        }
    }

    void
    run(RequestProbe &probe) override
    {
        Ct sum = timedCall("pimhe.reduceCiphertexts", probe.pimheMs,
                           [&] { return sys_.reduceCiphertexts(cts_); });
        if (takeCorruption())
            client_.corrupt(sum);
        sum_ = client_.decrypt(sum, probe);
        means_.resize(kDegree);
        for (std::size_t i = 0; i < kDegree; ++i)
            means_[i] = static_cast<double>(sum_.coeffs[i]) / kUsers;
    }

    bool
    check(RequestProbe &) override
    {
        if (sum_.size() != kDegree)
            return false;
        for (std::size_t i = 0; i < kDegree; ++i) {
            std::uint64_t s = 0;
            for (const std::uint64_t j : idx_)
                s += client_.plain(j).coeffs[i];
            if (sum_.coeffs[i] != s % kPlainModulus)
                return false;
        }
        return true;
    }

    std::vector<const pim::DpuSet *>
    dpuSets() const override
    {
        return {&sys_.dpuSet()};
    }

    std::vector<analysis::KernelFootprint>
    footprints() const override
    {
        // Mirrors reduceResident's fold rounds over packed slices.
        const std::size_t per_dpu = (2 * kDegree + kDpus - 1) / kDpus;
        const std::uint64_t slice = per_dpu * N * 4;
        std::vector<analysis::KernelFootprint> fps;
        for (std::uint64_t m = kUsers; m > 1;) {
            const std::uint64_t hh = (m + 1) / 2;
            fps.push_back(pimhe_kernels::reduceRoundFootprint(
                vecParams(client_.ctx(), 0, hh * slice, 0,
                          (m - hh) * per_dpu),
                sys_.dpuSet().config().dpu, kTasklets));
            m = hh;
        }
        return fps;
    }

  private:
    const Client &client_;
    BfvContext<N> serverCtx_;
    PimHeSystem<N> sys_;
    std::vector<std::uint64_t> idx_;
    std::vector<Ct> cts_;
    Plaintext sum_;
    std::vector<double> means_;
};

/**
 * Fig. 1b/2b multiply path: multiply + relinearize on a server context
 * whose convolver is a PimConvolver row-sharded over 16 DPUs (4 + 14
 * convolutions = 18 launches), then the client's decrypt. n = 256.
 */
class MulRelinSharded final : public Workload
{
  public:
    static constexpr std::size_t kDegree = 256;
    static constexpr std::size_t kDpus = 16;

    MulRelinSharded(const Client &client, std::size_t host_threads)
        : client_(client),
          serverCtx_(std::make_unique<BfvContext<N>>(
              client.ctx().params())),
          eval_(*serverCtx_), rlk_(client.relinKey())
    {
        auto conv = std::make_unique<TimingConvolver>(
            std::make_unique<PimConvolver<N>>(serverCtx_->ring(),
                                              serverConfig(host_threads),
                                              kTasklets, kDpus));
        conv_ = conv.get();
        serverCtx_->setConvolver(std::move(conv));
    }

    void
    prepare(Rng &idx) override
    {
        ia_ = idx.uniform(kPoolSize);
        ib_ = idx.uniform(kPoolSize);
    }

    void
    run(RequestProbe &probe) override
    {
        const double conv_ms = conv_->ms();
        const std::uint64_t convs = conv_->calls();
        const Ct prod = timedCall("bfv.multiply", probe.bfvEvalMs, [&] {
            return eval_.multiply(client_.ct(ia_), client_.ct(ib_));
        });
        Ct relin = timedCall("bfv.relinearize", probe.bfvEvalMs, [&] {
            return eval_.relinearize(prod, rlk_);
        });
        probe.convolveMs += conv_->ms() - conv_ms;
        probe.convolves += conv_->calls() - convs;
        probe.pimheMs += conv_->ms() - conv_ms;
        if (takeCorruption())
            client_.corrupt(relin);
        product_ = client_.decrypt(relin, probe);
    }

    bool
    check(RequestProbe &) override
    {
        // Negacyclic product of the two plaintexts, mod t.
        const auto &a = client_.plain(ia_).coeffs;
        const auto &b = client_.plain(ib_).coeffs;
        std::vector<std::uint64_t> want(kDegree, 0);
        for (std::size_t i = 0; i < kDegree; ++i)
            for (std::size_t j = 0; j < kDegree; ++j) {
                const std::uint64_t p = a[i] * b[j] % kPlainModulus;
                const std::size_t k = (i + j) % kDegree;
                want[k] = i + j < kDegree
                              ? (want[k] + p) % kPlainModulus
                              : (want[k] + kPlainModulus - p) %
                                    kPlainModulus;
            }
        return product_.coeffs == want;
    }

    std::vector<const pim::DpuSet *>
    dpuSets() const override
    {
        return {&conv_->inner().dpuSet()};
    }

    std::vector<analysis::KernelFootprint>
    footprints() const override
    {
        // Mirrors PimConvolver::convolveCentered's sharded layout.
        const RingContext<N> &ring = serverCtx_->ring();
        pimhe_kernels::ConvKernelParams kp;
        kp.n = static_cast<std::uint32_t>(kDegree);
        kp.limbs = N;
        const WideInt<N> half = ring.modulus().shr(1);
        for (std::size_t l = 0; l < N; ++l) {
            kp.q[l] = ring.modulus().limb(l);
            kp.halfQ[l] = half.limb(l);
        }
        kp.mramA = 0;
        kp.mramB = kDegree * N * 4;
        kp.mramOut = 2 * kDegree * N * 4;
        const auto [b0, e0] = analysis::rowShardRange(
            kp.n, static_cast<std::uint32_t>(kDpus), 0);
        kp.rowBegin = b0;
        kp.rowEnd = e0;
        kp.mramMeta = kp.mramOut + std::uint64_t(e0 - b0) * kp.accLimbs() * 4;
        const std::size_t launches =
            4 + 2 * rlk_.digits.size(); // tensor product + relin digits
        return std::vector<analysis::KernelFootprint>(
            launches, pimhe_kernels::convKernelFootprint(
                          kp, conv_->inner().dpuSet().config().dpu));
    }

  private:
    const Client &client_;
    std::unique_ptr<BfvContext<N>> serverCtx_;
    Evaluator<N> eval_;
    RelinKey<N> rlk_; //!< the evaluation key the client published
    const TimingConvolver *conv_ = nullptr;
    std::uint64_t ia_ = 0, ib_ = 0;
    Plaintext product_;
};

/** Static description of a workload. */
struct WorkloadSpec
{
    const char *name;
    std::size_t degree;
    bool relinKey;
    /** Timed requests after which peak_rss_mb is read: fixed, so the
     *  launch history behind it does not grow with throughput. */
    std::size_t rssRequests;
    /** SystemConfig::hostThreads of the server's simulator in the timed
     *  loop: the count at which the workload's host figures are steadiest
     *  on a shared host (see perfbench/README.md). */
    std::size_t hostThreads;
};

inline const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"vector_add_staged", VectorAddStaged::kDegree, false, 1000, 1},
        {"mean_resident", MeanResident::kDegree, false, 800, 1},
        {"mul_relin_sharded", MulRelinSharded::kDegree, true, 400, 2},
    };
    return specs;
}

inline const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const WorkloadSpec &s : workloadSpecs())
        if (name == s.name)
            return &s;
    return nullptr;
}

inline std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec, const Client &client,
             std::size_t host_threads)
{
    const std::string name = spec.name;
    if (name == "vector_add_staged")
        return std::make_unique<VectorAddStaged>(client, host_threads);
    if (name == "mean_resident")
        return std::make_unique<MeanResident>(client, host_threads);
    return std::make_unique<MulRelinSharded>(client, host_threads);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
