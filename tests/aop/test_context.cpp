#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "fixtures.hpp"

namespace aop = apar::aop;
using apar::test::Point;
using apar::test::Worker;

TEST(Context, CreateWithoutAspectsIsPlainConstruction) {
  aop::Context ctx;
  auto p = ctx.create<Point>(3, 4);
  ASSERT_TRUE(p.is_local());
  EXPECT_EQ(p.local()->x(), 3);
  EXPECT_EQ(p.local()->y(), 4);
}

TEST(Context, CallWithoutAspectsIsPlainDispatch) {
  aop::Context ctx;
  auto p = ctx.create<Point>(0, 0);
  ctx.call<&Point::moveX>(p, 10);
  ctx.call<&Point::moveY>(p, 5);
  EXPECT_EQ(p.local()->x(), 10);
  EXPECT_EQ(p.local()->y(), 5);
}

TEST(Context, CallReturnsValue) {
  aop::Context ctx;
  auto w = ctx.create<Worker>(1);
  EXPECT_EQ(ctx.call<&Worker::compute>(w, 10), 21);
}

TEST(Context, ReferenceArgumentsMutateInPlaceWhenSynchronous) {
  aop::Context ctx;
  auto w = ctx.create<Worker>(5);
  std::vector<int> pack{1, 2, 3};
  ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(pack, (std::vector<int>{6, 7, 8}));
}

TEST(Context, AttachDetachFind) {
  aop::Context ctx;
  auto aspect = std::make_shared<aop::Aspect>("logging");
  ctx.attach(aspect);
  EXPECT_EQ(ctx.find("logging"), aspect);
  EXPECT_EQ(ctx.attached(), std::vector<std::string>{"logging"});
  auto removed = ctx.detach("logging");
  EXPECT_EQ(removed, aspect);
  EXPECT_EQ(ctx.find("logging"), nullptr);
  EXPECT_TRUE(ctx.attached().empty());
}

TEST(Context, DetachUnknownReturnsNull) {
  aop::Context ctx;
  EXPECT_EQ(ctx.detach("nope"), nullptr);
}

TEST(Context, DuplicateAttachThrows) {
  aop::Context ctx;
  ctx.attach(std::make_shared<aop::Aspect>("a"));
  EXPECT_THROW(ctx.attach(std::make_shared<aop::Aspect>("a")),
               std::invalid_argument);
}

TEST(Context, NullAttachThrows) {
  aop::Context ctx;
  EXPECT_THROW(ctx.attach(nullptr), std::invalid_argument);
}

TEST(Context, EpochBumpsOnPlugUnplug) {
  aop::Context ctx;
  const auto e0 = ctx.epoch();
  ctx.attach(std::make_shared<aop::Aspect>("a"));
  const auto e1 = ctx.epoch();
  EXPECT_GT(e1, e0);
  ctx.detach("a");
  EXPECT_GT(ctx.epoch(), e1);
}

TEST(Context, AttachChangesCallSemanticsImmediately) {
  aop::Context ctx;
  auto p = ctx.create<Point>(0, 0);
  std::atomic<int> intercepted{0};

  auto logging = std::make_shared<aop::Aspect>("logging");
  logging->before_method<&Point::moveX>(
      aop::order::kDefault, aop::Scope::any(),
      [&](auto&) { ++intercepted; });

  ctx.call<&Point::moveX>(p, 1);
  EXPECT_EQ(intercepted.load(), 0);

  ctx.attach(logging);
  ctx.call<&Point::moveX>(p, 1);
  EXPECT_EQ(intercepted.load(), 1);

  ctx.detach("logging");
  ctx.call<&Point::moveX>(p, 1);
  EXPECT_EQ(intercepted.load(), 1);
  EXPECT_EQ(p.local()->x(), 3);  // all three calls reached the object
}

TEST(Context, DisabledAspectIsSkippedWithoutDetaching) {
  aop::Context ctx;
  auto p = ctx.create<Point>(0, 0);
  std::atomic<int> intercepted{0};
  auto aspect = std::make_shared<aop::Aspect>("toggle");
  aspect->before_method<&Point::moveX>(aop::order::kDefault,
                                       aop::Scope::any(),
                                       [&](auto&) { ++intercepted; });
  ctx.attach(aspect);
  aspect->set_enabled(false);
  ctx.call<&Point::moveX>(p, 1);
  EXPECT_EQ(intercepted.load(), 0);
  aspect->set_enabled(true);
  ctx.call<&Point::moveX>(p, 1);
  EXPECT_EQ(intercepted.load(), 1);
}

TEST(Context, AdviceChainCacheInvalidatedByPlugging) {
  // The advice-chain cache must never serve stale chains: a call weaves
  // the (cached) empty chain, then an aspect is attached and the very
  // next call must see it; detaching must hide it again.
  aop::Context ctx;
  auto p = ctx.create<Point>(0, 0);
  ctx.call<&Point::moveX>(p, 1);  // caches the empty chain

  std::atomic<int> hits{0};
  auto aspect = std::make_shared<aop::Aspect>("late");
  aspect->before_method<&Point::moveX>(aop::order::kDefault,
                                       aop::Scope::any(),
                                       [&](auto&) { ++hits; });
  ctx.attach(aspect);
  ctx.call<&Point::moveX>(p, 1);
  EXPECT_EQ(hits.load(), 1);

  ctx.detach("late");
  ctx.call<&Point::moveX>(p, 1);  // cached WITH advice — must re-resolve
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(p.local()->x(), 3);
}

TEST(Context, CacheSeparatesMethodsOfSameShape) {
  // moveX and moveY share the advice-record type (void(Point::*)(int));
  // the cache must still key them apart.
  aop::Context ctx;
  auto p = ctx.create<Point>(0, 0);
  std::atomic<int> x_hits{0};
  auto aspect = std::make_shared<aop::Aspect>("xonly");
  aspect->before_method<&Point::moveX>(aop::order::kDefault,
                                       aop::Scope::any(),
                                       [&](auto&) { ++x_hits; });
  ctx.attach(aspect);
  ctx.call<&Point::moveY>(p, 1);  // caches moveY's (empty) chain first
  ctx.call<&Point::moveX>(p, 1);
  ctx.call<&Point::moveY>(p, 1);
  EXPECT_EQ(x_hits.load(), 1);
  EXPECT_EQ(p.local()->x(), 1);
  EXPECT_EQ(p.local()->y(), 2);
}

TEST(Context, CallFutureDeliversResult) {
  aop::Context ctx;
  auto w = ctx.create<Worker>(3);
  auto f = ctx.call_future<&Worker::compute>(w, 100);
  EXPECT_EQ(f.get(), 203);
  ctx.quiesce();
}

TEST(Context, CallFutureVoid) {
  aop::Context ctx;
  auto p = ctx.create<Point>(0, 0);
  auto f = ctx.call_future<&Point::moveX>(p, 7);
  f.get();
  EXPECT_EQ(p.local()->x(), 7);
  ctx.quiesce();
}

TEST(Context, QuiesceOnEmptyContextReturns) {
  aop::Context ctx;
  EXPECT_NO_THROW(ctx.quiesce());
}

TEST(Ref, IdentityStableAcrossCopies) {
  aop::Context ctx;
  auto a = ctx.create<Point>(0, 0);
  auto b = a;
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_TRUE(a == b);
  auto c = ctx.create<Point>(0, 0);
  EXPECT_NE(a.identity(), c.identity());
}

TEST(Ref, InvalidRefBehaviour) {
  aop::Ref<Point> r;
  EXPECT_FALSE(r.valid());
  EXPECT_FALSE(r.is_local());
  EXPECT_FALSE(r.is_remote());
  EXPECT_EQ(r.local(), nullptr);
  EXPECT_THROW((void)r.local_or_throw(), aop::NotLocalError);
  EXPECT_EQ(r.describe(), "<null ref>");
}

namespace {
struct FakeBinding final : aop::RemoteBinding {
  [[nodiscard]] std::string describe() const override { return "node 2"; }
};
}  // namespace

TEST(Ref, RemoteRefThrowsOnLocalDispatch) {
  aop::Context ctx;
  auto remote = aop::Ref<Point>::make_remote(std::make_shared<FakeBinding>());
  EXPECT_TRUE(remote.is_remote());
  EXPECT_FALSE(remote.is_local());
  EXPECT_EQ(remote.describe(), "node 2");
  EXPECT_THROW(ctx.call<&Point::moveX>(remote, 1), aop::NotLocalError);
}
