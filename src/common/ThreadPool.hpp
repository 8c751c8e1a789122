#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "../failsafe/FaultInjection.hpp"
#include "../telemetry/Registry.hpp"
#include "../telemetry/Trace.hpp"

namespace rapidgzip {

/**
 * Fixed-size thread pool with a FIFO task queue. Tasks return futures.
 * Kept deliberately simple: the chunk fetcher bounds its own queue depth
 * through its prefetch depth, so no backpressure is needed here.
 *
 * Telemetry: queue depth gauge plus task wait/run latency histograms and
 * "pool.task" run spans, all gated so a disabled process pays one relaxed
 * load per submit and a null timestamp check per dequeue.
 */
class ThreadPool
{
public:
    explicit ThreadPool( std::size_t threadCount )
    {
        if ( threadCount == 0 ) {
            threadCount = 1;
        }
        m_threads.reserve( threadCount );
        for ( std::size_t i = 0; i < threadCount; ++i ) {
            m_threads.emplace_back( [this] () { workerLoop(); } );
        }
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock( m_mutex );
            m_shuttingDown = true;
            /* Discard unstarted tasks: their futures (if still referenced)
             * report broken_promise instead of blocking shutdown on work
             * nobody will consume. Running tasks complete via join(). */
            if ( !m_tasks.empty() && telemetry::metricsEnabled() ) {
                queueDepthGauge().add( -static_cast<std::int64_t>( m_tasks.size() ) );
            }
            m_tasks.clear();
        }
        m_workAvailable.notify_all();
        for ( auto& thread : m_threads ) {
            thread.join();
        }
    }

    ThreadPool( const ThreadPool& ) = delete;
    ThreadPool& operator=( const ThreadPool& ) = delete;

    template<typename Functor>
    [[nodiscard]] std::future<std::invoke_result_t<Functor> >
    submit( Functor&& functor )
    {
        using Result = std::invoke_result_t<Functor>;
        auto task = std::make_shared<std::packaged_task<Result()> >( std::forward<Functor>( functor ) );
        auto future = task->get_future();
        const auto instrumented = telemetry::metricsEnabled() || telemetry::traceEnabled();
        const auto enqueueNs = instrumented ? telemetry::nowNs() : std::uint64_t( 0 );
        {
            std::lock_guard<std::mutex> lock( m_mutex );
            m_tasks.push_back( { [task = std::move( task )] () { ( *task )(); }, enqueueNs } );
            if ( instrumented && telemetry::metricsEnabled() ) {
                queueDepthGauge().add( 1 );
            }
        }
        m_workAvailable.notify_one();
        return future;
    }

    [[nodiscard]] std::size_t
    threadCount() const noexcept
    {
        return m_threads.size();
    }

private:
    struct QueuedTask
    {
        std::function<void()> run;
        std::uint64_t enqueueNs{ 0 };  /**< 0 when telemetry was off at submit time */
    };

    /** Process-wide (all pools share it): outstanding tasks not yet started. */
    [[nodiscard]] static telemetry::Gauge&
    queueDepthGauge()
    {
        static auto& gauge = telemetry::Registry::instance().gauge(
            "rapidgzip_pool_queue_depth", "Tasks enqueued to thread pools but not yet started." );
        return gauge;
    }

    void
    workerLoop()
    {
        while ( true ) {
            QueuedTask task;
            {
                std::unique_lock<std::mutex> lock( m_mutex );
                m_workAvailable.wait( lock, [this] () { return m_shuttingDown || !m_tasks.empty(); } );
                if ( m_tasks.empty() ) {
                    return;  /* shutting down and drained */
                }
                task = std::move( m_tasks.front() );
                m_tasks.pop_front();
            }
            /* pool.task probe: a firing draw sleeps the configured latency,
             * jittering task start order to shake out scheduling and
             * timeout assumptions. Latency is its only effect — a throw
             * here would escape the packaged_task and kill the worker. */
            (void)failsafe::shouldInject( failsafe::FaultPoint::POOL_TASK );
            if ( task.enqueueNs != 0 ) {
                if ( telemetry::metricsEnabled() ) {
                    queueDepthGauge().add( -1 );
                    static auto& waitHistogram = telemetry::Registry::instance().histogram(
                        "rapidgzip_pool_task_wait_seconds",
                        "Time tasks spent queued before a worker picked them up." );
                    waitHistogram.recordUnchecked( telemetry::nowNs() - task.enqueueNs );
                }
                const auto runBeginNs = telemetry::nowNs();
                {
                    telemetry::Span runSpan{ "pool", "pool.task" };
                    task.run();
                }
                if ( telemetry::metricsEnabled() ) {
                    static auto& runHistogram = telemetry::Registry::instance().histogram(
                        "rapidgzip_pool_task_run_seconds", "Wall time tasks spent executing on a worker." );
                    runHistogram.recordUnchecked( telemetry::nowNs() - runBeginNs );
                }
            } else {
                task.run();
            }
        }
    }

    std::mutex m_mutex;
    std::condition_variable m_workAvailable;
    std::deque<QueuedTask> m_tasks;
    std::vector<std::thread> m_threads;
    bool m_shuttingDown{ false };
};

}  // namespace rapidgzip
