#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/ThreadPool.hpp"
#include "../common/Util.hpp"
#include "../failsafe/FaultInjection.hpp"
#include "../telemetry/Telemetry.hpp"
#include "../telemetry/Trace.hpp"
#include "ArchiveRegistry.hpp"
#include "Http.hpp"
#include "Metrics.hpp"

namespace rapidgzip::serve {

struct ServerConfiguration
{
    std::string bindAddress{ "127.0.0.1" };
    std::uint16_t port{ 0 };  /**< 0 = let the kernel pick an ephemeral port */
    std::string rootDirectory{ "." };
    std::size_t workerCount{ 4 };
    std::size_t cacheBytes{ 256 * MiB };
    std::size_t maxArchives{ 64 };
    /** Event-loop shards (--threads). 0 = one per hardware thread. Each
     * shard runs its own poll() loop with its own connection table; they
     * share the registry, chunk cache, worker pool, and metrics. */
    std::size_t shardCount{ 1 };
    /** Per-archive reader knobs. Every reader decodes on the chunk cache's
     * one decode pool, so parallelism here is only a reader's prefetch
     * depth; keep it modest, as the daemon's concurrency comes from many
     * archives × many requests. */
    ChunkFetcherConfiguration readerConfiguration{};

    /* --- robustness limits (0 disables the corresponding guard) -------- */

    /** Accept gate: above this many live connections ACROSS ALL SHARDS,
     * new ones get an immediate 503 + Retry-After and are closed. */
    std::size_t maxConnections{ 1024 };
    /** A connection with a partial request buffered must complete the
     * header block within this window or it is answered 408 and closed —
     * the slow-loris guard. */
    std::uint32_t headerReadTimeoutMs{ 10'000 };
    /** Keep-alive connections with no buffered bytes are silently closed
     * after this much inactivity. */
    std::uint32_t idleTimeoutMs{ 60'000 };
    /** A queued response that makes no write progress for this long means
     * the peer stopped reading — the connection is dropped. */
    std::uint32_t writeTimeoutMs{ 30'000 };
    /** Graceful drain: after beginDrain(), in-flight work gets this long
     * to finish before remaining connections are dropped. */
    std::uint32_t drainTimeoutMs{ 10'000 };
    /** Failed-open negative-cache base backoff (see RegistryLimits). */
    std::uint32_t failedOpenBackoffMs{ 1000 };
};

/**
 * The rapidgzip-serve daemon core: N event-loop shards, each a thread
 * multiplexing non-blocking sockets with poll(), HTTP parsing and socket
 * I/O on the shard's loop, requests that may wait on one worker pool, and
 * every chunk decode on the chunk cache's one decode pool. Layering
 * (see DESIGN.md "Serve"):
 *
 *   shard loops ─ per-connection HTTP/1.1 state machines (keep-alive,
 *   pipelining-safe: surplus bytes stay buffered until the in-flight
 *   response is sent, so requests are answered strictly in order)
 *        │ the handler with Wait::NEVER: a range of an open, sized archive
 *        │ whose chunks are all decoded in a cache tier is answered here
 *        │ otherwise: submit(shard, connection id, request)
 *   worker pool ─ the same handler with Wait::ALLOWED: ArchiveRegistry
 *        │ handle → Decompressor::readSpansAt, opening, and waiting for
 *        │ decodes on the cache's decode pool
 *        │ per-shard completion queue + self-pipe wakeup
 *   shard loops ─ writev responses, resume parsing
 *
 * A shard answers a request itself only while no request waits unstarted
 * in the worker queue, so a hit never overtakes a queued miss, and at most
 * one request per connection per loop round, so a pipelined batch of hits
 * takes turns with the shard's other connections. Every endpoint and every
 * error answer comes from a worker.
 *
 * Incoming connections are distributed by SO_REUSEPORT: every shard binds
 * its own listener to the same address and the kernel spreads accepts by
 * 4-tuple hash. More than one shard therefore requires SO_REUSEPORT
 * (Linux ≥ 3.9); a single shard does not set it.
 *
 * Responses are ZERO-COPY: a response is a small header string plus a body
 * of refcounted spans lent straight out of cached decoded chunks, flushed
 * with scatter-gather sendmsg(). Each span shares ownership of its chunk,
 * so LRU eviction can never free bytes an in-flight write still points at —
 * the bytes die exactly when the last span drops, at flush or close.
 *
 * Connections are addressed by monotonic process-wide ids, never raw fds —
 * a worker completion for a connection that died meanwhile must not reach
 * whoever inherited the fd number.
 *
 * Thread model: the shards, the workers and the cache's decode pool, none
 * of which grows with the open archives. Construct + start() + run() from
 * one thread; stop(), beginDrain(), and port() are safe from any thread. The shared state the
 * shards touch concurrently — registry, chunk cache, telemetry registry,
 * worker pool, and the stop/drain/admission atomics — is thread-safe by
 * construction; everything per-connection is confined to its shard.
 */
class Server
{
public:
    explicit Server( ServerConfiguration configuration ) :
        m_configuration( std::move( configuration ) ),
        m_sharedCache( std::make_shared<LruChunkCache>( m_configuration.cacheBytes ) ),
        m_registry( m_configuration.rootDirectory, m_configuration.maxArchives,
                    m_sharedCache, m_configuration.readerConfiguration,
                    RegistryLimits{ m_configuration.failedOpenBackoffMs } ),
        m_workers( std::max<std::size_t>( 1, m_configuration.workerCount ) )
    {
        /* A daemon wants its pipeline counters live in /metrics; the
         * library-internal hooks are the useful part of that endpoint. */
        telemetry::setMetricsEnabled( true );
    }

    ~Server() = default;

    Server( const Server& ) = delete;
    Server& operator=( const Server& ) = delete;

    /** Bind + listen on every shard; after this, port() reports the actual
     * port. Throws FileIoError when a listener cannot be opened, including
     * when more than one shard is configured and SO_REUSEPORT cannot be
     * set. */
    void
    start()
    {
        const auto shardCount = m_configuration.shardCount == 0
                                ? std::max<std::size_t>( 1, std::thread::hardware_concurrency() )
                                : m_configuration.shardCount;
        for ( std::size_t i = 0; i < shardCount; ++i ) {
            m_shards.push_back( std::make_unique<Shard>( this ) );
        }

        /* Shard 0 binds first (possibly to an ephemeral port); the others
         * join its port. SO_REUSEPORT must be on EVERY socket of the group,
         * including the first, before bind. */
        const bool reusePort = shardCount > 1;
        m_shards[0]->listenFd = openListener( m_configuration.port, reusePort );

        sockaddr_in bound{};
        socklen_t boundSize = sizeof( bound );
        if ( ::getsockname( m_shards[0]->listenFd,
                            reinterpret_cast<sockaddr*>( &bound ), &boundSize ) == 0 ) {
            m_port.store( ntohs( bound.sin_port ) );
        }
        for ( std::size_t i = 1; i < m_shards.size(); ++i ) {
            m_shards[i]->listenFd = openListener( m_port.load(), reusePort );
        }
    }

    [[nodiscard]] std::uint16_t
    port() const noexcept
    {
        return m_port.load();
    }

    /** Event-loop shards actually running (after start()). */
    [[nodiscard]] std::size_t
    shardCount() const noexcept
    {
        return m_shards.size();
    }

    /** Safe from any thread (and from within run()'s workers). */
    void
    stop()
    {
        m_stopRequested.store( true );
        wakeAllShards();
    }

    /**
     * Graceful drain, safe from any thread and from signal handlers
     * (atomic store + self-pipe writes): every shard stops accepting,
     * /readyz flips to 503 process-wide, in-flight requests finish within
     * drainTimeoutMs, then run() returns. A subsequent stop() still
     * hard-stops.
     */
    void
    beginDrain()
    {
        m_drainRequested.store( true );
        wakeAllShards();
    }

    [[nodiscard]] bool
    draining() const noexcept
    {
        return m_drainRequested.load();
    }

    [[nodiscard]] const ServeMetrics&
    metrics() const noexcept
    {
        return m_metrics;
    }

    [[nodiscard]] const LruChunkCache&
    sharedCache() const noexcept
    {
        return *m_sharedCache;
    }

    /** Blocking: runs shard 0's loop on the calling thread and one thread
     * per further shard; returns after stop() or a completed drain. */
    void
    run()
    {
        std::vector<std::thread> shardThreads;
        shardThreads.reserve( m_shards.size() > 0 ? m_shards.size() - 1 : 0 );
        for ( std::size_t i = 1; i < m_shards.size(); ++i ) {
            shardThreads.emplace_back( [shard = m_shards[i].get()] () { shard->loop(); } );
        }
        if ( !m_shards.empty() ) {
            m_shards[0]->loop();
        }
        /* Shard 0 finishing (stop or drained) must release the others even
         * if their own wakeups raced: stop-vs-drain semantics are shared
         * atomics, so one more wake round is enough. */
        wakeAllShards();
        for ( auto& thread : shardThreads ) {
            thread.join();
        }
    }

private:
    struct Connection
    {
        int fd{ -1 };
        std::uint64_t id{ 0 };
        RequestParser parser;
        bool awaitingResponse{ false };
        bool peerClosed{ false };
        bool closeAfterFlush{ false };
        /** The loop round in which the shard last answered a request of
         * this connection itself. */
        std::uint64_t loopAnswerRound{ 0 };
        /** A buffered request waits for the next loop round. */
        bool dispatchDeferred{ false };
        /** Outbox = header bytes + refcounted body spans, flushed with
         * scatter-gather sendmsg. The spans hold their chunks alive until
         * the flush completes (or the connection dies). */
        std::string outboxHead;
        std::vector<OwnedSpan> outboxBody;
        std::size_t outboxSent{ 0 };
        std::size_t outboxTotal{ 0 };
        /** Last observed progress (accept, read bytes, wrote bytes,
         * response queued) — the reference point for every deadline. */
        std::uint64_t lastActivityMs{ 0 };

        [[nodiscard]] bool
        hasOutbox() const noexcept
        {
            return outboxTotal > 0;
        }

        /** The peer is gone and nothing is left to answer or send. */
        [[nodiscard]] bool
        finished() const noexcept
        {
            return peerClosed && !awaitingResponse && !hasOutbox() && !dispatchDeferred;
        }
    };

    /** A finished response: small head string (status line + headers, plus
     * the whole body for error/endpoint responses) and zero-copy spans for
     * archive bodies. */
    struct Response
    {
        std::string head;
        std::vector<OwnedSpan> body;
        bool keepAlive{ true };
    };

    struct Completion
    {
        std::uint64_t connectionId{ 0 };
        Response response;
    };

    [[nodiscard]] static std::uint64_t
    nowMs() noexcept
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch() ).count() );
    }

    static void
    setNonBlocking( int fd )
    {
        const auto flags = ::fcntl( fd, F_GETFL, 0 );
        ::fcntl( fd, F_SETFL, flags | O_NONBLOCK );
    }

    static void
    closeFd( int& fd )
    {
        if ( fd >= 0 ) {
            ::close( fd );
            fd = -1;
        }
    }

    /** Create + bind + listen a non-blocking listener, with SO_REUSEPORT
     * when @p reusePort. Throws FileIoError on any failure. */
    [[nodiscard]] int
    openListener( std::uint16_t port, bool reusePort ) const
    {
        int fd = ::socket( AF_INET, SOCK_STREAM, 0 );
        if ( fd < 0 ) {
            throw FileIoError( "socket() failed: " + std::string( std::strerror( errno ) ) );
        }
        const int enable = 1;
        ::setsockopt( fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof( enable ) );
        if ( reusePort && ( ::setsockopt( fd, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof( enable ) ) != 0 ) ) {
            const auto message = std::string( std::strerror( errno ) );
            ::close( fd );
            throw FileIoError( "SO_REUSEPORT, which more than one shard requires, failed: " + message );
        }

        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons( port );
        if ( ::inet_pton( AF_INET, m_configuration.bindAddress.c_str(), &address.sin_addr ) != 1 ) {
            ::close( fd );
            throw FileIoError( "Invalid bind address: " + m_configuration.bindAddress );
        }
        if ( ::bind( fd, reinterpret_cast<sockaddr*>( &address ), sizeof( address ) ) != 0 ) {
            const auto message = std::string( std::strerror( errno ) );
            ::close( fd );
            throw FileIoError( "bind() failed: " + message );
        }
        if ( ::listen( fd, 256 ) != 0 ) {
            const auto message = std::string( std::strerror( errno ) );
            ::close( fd );
            throw FileIoError( "listen() failed: " + message );
        }
        setNonBlocking( fd );
        return fd;
    }

    void
    wakeAllShards()
    {
        for ( auto& shard : m_shards ) {
            shard->wake();
        }
    }

    /* --- one event-loop shard ------------------------------------------ */

    struct Shard
    {
        explicit Shard( Server* owner ) :
            server( owner )
        {
            int pipeFds[2];
            if ( ::pipe( pipeFds ) != 0 ) {
                throw FileIoError( "pipe() failed: " + std::string( std::strerror( errno ) ) );
            }
            wakeRead = pipeFds[0];
            wakeWrite = pipeFds[1];
            setNonBlocking( wakeRead );
            setNonBlocking( wakeWrite );
        }

        ~Shard()
        {
            for ( auto& [id, connection] : connections ) {
                closeFd( connection.fd );
                server->m_liveConnections.fetch_sub( 1 );
            }
            connections.clear();
            closeFd( listenFd );
            closeFd( wakeRead );
            closeFd( wakeWrite );
        }

        Shard( const Shard& ) = delete;
        Shard& operator=( const Shard& ) = delete;

        void
        wake()
        {
            const char byte = 1;
            (void)!::write( wakeWrite, &byte, 1 );
        }

        /** This shard's poll loop; returns on stop() or completed drain. */
        void
        loop()
        {
            std::vector<pollfd> pollFds;
            std::vector<std::uint64_t> pollIds;  /* connection id per slot, 0 = special */

            while ( !server->m_stopRequested.load() ) {
                ++round;
                drainCompletions();
                dispatchDeferred();

                /* Drain transitions happen here, on the shard's own thread:
                 * every shard observes the shared flag, closes ITS listener,
                 * stamps ITS deadline, and winds down its own connections —
                 * the sweep covers all shards, not just the one whose thread
                 * handled the signal. /readyz flipped to 503 process-wide
                 * the moment the flag was set. */
                if ( server->m_drainRequested.load() && !drainActive ) {
                    drainActive = true;
                    drainDeadlineMs = nowMs() + server->m_configuration.drainTimeoutMs;
                    closeFd( listenFd );
                }
                if ( drainActive ) {
                    closeIdleForDrain();
                    if ( connections.empty() || ( nowMs() >= drainDeadlineMs ) ) {
                        break;
                    }
                }

                pollFds.clear();
                pollIds.clear();
                pollFds.push_back( { wakeRead, POLLIN, 0 } );
                pollIds.push_back( 0 );
                const bool hasListen = listenFd >= 0;
                if ( hasListen ) {
                    pollFds.push_back( { listenFd, POLLIN, 0 } );
                    pollIds.push_back( 0 );
                }
                for ( auto& [id, connection] : connections ) {
                    short events = 0;
                    /* Backpressure: while a response is being computed or
                     * written, or a buffered request waits for the next
                     * round, stop reading — pipelined bytes already received
                     * stay in the parser buffer. */
                    if ( !connection.awaitingResponse && !connection.hasOutbox()
                         && !connection.dispatchDeferred && !connection.peerClosed ) {
                        events |= POLLIN;
                    }
                    if ( connection.hasOutbox() ) {
                        events |= POLLOUT;
                    }
                    pollFds.push_back( { connection.fd, events, 0 } );
                    pollIds.push_back( id );
                }

                if ( ::poll( pollFds.data(), pollFds.size(),
                             deferred.empty() ? pollTimeoutMs() : 0 ) < 0 ) {
                    if ( errno == EINTR ) {
                        continue;
                    }
                    break;
                }

                if ( ( pollFds[0].revents & POLLIN ) != 0 ) {
                    char sink[256];
                    while ( ::read( wakeRead, sink, sizeof( sink ) ) > 0 ) {}
                }
                drainCompletions();

                std::size_t firstConnectionSlot = 1;
                if ( hasListen ) {
                    if ( ( pollFds[1].revents & POLLIN ) != 0 ) {
                        acceptNewConnections();
                    }
                    firstConnectionSlot = 2;
                }

                for ( std::size_t i = firstConnectionSlot; i < pollFds.size(); ++i ) {
                    const auto id = pollIds[i];
                    const auto match = connections.find( id );
                    if ( match == connections.end() ) {
                        continue;  /* closed by an earlier event this round */
                    }
                    auto& connection = match->second;
                    const auto revents = pollFds[i].revents;
                    if ( ( revents & ( POLLERR | POLLNVAL ) ) != 0 ) {
                        closeConnection( id );
                        continue;
                    }
                    if ( ( revents & ( POLLIN | POLLHUP ) ) != 0 ) {
                        if ( !handleReadable( connection ) ) {
                            closeConnection( id );
                            continue;
                        }
                    }
                    if ( ( revents & POLLOUT ) != 0 ) {
                        if ( !handleWritable( connection ) ) {
                            closeConnection( id );
                            continue;
                        }
                    }
                }

                enforceDeadlines();
            }

            /* Shutdown: drop connections; in-flight worker tasks complete
             * into the queue and are discarded with it. */
            for ( auto& [id, connection] : connections ) {
                closeFd( connection.fd );
                server->m_liveConnections.fetch_sub( 1 );
            }
            connections.clear();
        }

        /** Absolute deadline for @p connection, 0 when none applies. While
         * a worker computes the response no socket deadline runs — the
         * decode layer bounds that work with its own retry budget. */
        [[nodiscard]] std::uint64_t
        connectionDeadlineMs( const Connection& connection ) const
        {
            const auto& configuration = server->m_configuration;
            const auto after = [&] ( std::uint32_t timeoutMs ) -> std::uint64_t {
                return timeoutMs == 0 ? 0 : connection.lastActivityMs + timeoutMs;
            };
            if ( connection.awaitingResponse ) {
                return 0;
            }
            if ( connection.hasOutbox() ) {
                return after( configuration.writeTimeoutMs );
            }
            if ( connection.parser.bufferedBytes() > 0 ) {
                return after( configuration.headerReadTimeoutMs );
            }
            return after( configuration.idleTimeoutMs );
        }

        /** Poll timeout from the nearest connection (or drain) deadline,
         * capped at the historic 1 s heartbeat. */
        [[nodiscard]] int
        pollTimeoutMs() const
        {
            std::uint64_t nearest = UINT64_MAX;
            for ( const auto& [id, connection] : connections ) {
                if ( const auto deadline = connectionDeadlineMs( connection ); deadline != 0 ) {
                    nearest = std::min( nearest, deadline );
                }
            }
            if ( drainActive ) {
                nearest = std::min( nearest, drainDeadlineMs );
            }
            if ( nearest == UINT64_MAX ) {
                return 1000;
            }
            const auto now = nowMs();
            const auto wait = nearest > now ? nearest - now : 0;
            return static_cast<int>( std::min<std::uint64_t>( wait, 1000 ) );
        }

        /** Close (or 408) every connection whose deadline has passed. */
        void
        enforceDeadlines()
        {
            const auto now = nowMs();
            std::vector<std::uint64_t> expired;
            for ( const auto& [id, connection] : connections ) {
                const auto deadline = connectionDeadlineMs( connection );
                if ( ( deadline != 0 ) && ( now >= deadline ) ) {
                    expired.push_back( id );
                }
            }
            for ( const auto id : expired ) {
                const auto match = connections.find( id );
                if ( match == connections.end() ) {
                    continue;
                }
                auto& connection = match->second;
                if ( !connection.hasOutbox() && ( connection.parser.bufferedBytes() > 0 ) ) {
                    /* Slow loris: a partial request that never completed.
                     * Tell the peer (best effort — it may not be reading)
                     * and close once flushed; the write deadline bounds the
                     * flush. */
                    server->m_metrics.timeoutsTotal.addUnchecked( 1 );
                    server->m_metrics.countStatus( 408 );
                    queueHeadOnly( connection,
                                   buildResponse( 408, {}, reasonPhrase( 408 ),
                                                  /* keepAlive */ false ) );
                    connection.closeAfterFlush = true;
                    connection.lastActivityMs = now;
                    if ( !handleWritable( connection ) ) {
                        closeConnection( id );
                    }
                } else if ( connection.hasOutbox() ) {
                    server->m_metrics.timeoutsTotal.addUnchecked( 1 );  /* stalled write */
                    closeConnection( id );
                } else {
                    closeConnection( id );  /* idle keep-alive: silent close */
                }
            }
        }

        /** During drain, a connection with no request in flight has nothing
         * left to contribute — close it so the loop can wind down. */
        void
        closeIdleForDrain()
        {
            std::vector<std::uint64_t> idle;
            for ( const auto& [id, connection] : connections ) {
                if ( !connection.awaitingResponse && !connection.hasOutbox() ) {
                    idle.push_back( id );
                }
            }
            for ( const auto id : idle ) {
                closeConnection( id );
            }
        }

        void
        acceptNewConnections()
        {
            while ( true ) {
                const int fd = ::accept( listenFd, nullptr, nullptr );
                if ( fd < 0 ) {
                    if ( errno == EINTR ) {
                        continue;
                    }
                    break;  /* EAGAIN or transient error: poll again */
                }
                const auto limit = server->m_configuration.maxConnections;
                /* The admission count spans all shards, so the global gate
                 * holds no matter which listener the kernel picked. */
                const auto live = server->m_liveConnections.fetch_add( 1 ) + 1;
                if ( ( limit > 0 ) && ( live > limit ) ) {
                    server->m_liveConnections.fetch_sub( 1 );
                    rejectConnection( fd );
                    continue;
                }
                setNonBlocking( fd );
                const int enable = 1;
                ::setsockopt( fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof( enable ) );
                Connection connection;
                connection.fd = fd;
                connection.id = server->m_nextConnectionId.fetch_add( 1 ) + 1;
                connection.lastActivityMs = nowMs();
                server->m_metrics.connectionsAccepted.addUnchecked( 1 );
                connections.emplace( connection.id, std::move( connection ) );
            }
        }

        /** Admission refusal: one best-effort 503 (the socket buffer of a
         * fresh connection always takes it) and an immediate close. The
         * send result is deliberately not classified — 0, -1, or short,
         * the very next call closes the socket, so no errno (stale or
         * otherwise) can change the outcome. */
        void
        rejectConnection( int fd )
        {
            server->m_metrics.countRejected( "max_connections" );
            server->m_metrics.countStatus( 503 );
            const auto response = buildResponse( 503, "Retry-After: 1\r\n",
                                                 "server connection limit reached\n",
                                                 /* keepAlive */ false );
            const auto sent = ::send( fd, response.data(), response.size(), MSG_NOSIGNAL );
            (void)sent;
            ::close( fd );
        }

        void
        closeConnection( std::uint64_t id )
        {
            const auto match = connections.find( id );
            if ( match != connections.end() ) {
                closeFd( match->second.fd );
                connections.erase( match );
                server->m_liveConnections.fetch_sub( 1 );
            }
        }

        /** Queue a fully serialized response (error/endpoint payloads). */
        static void
        queueHeadOnly( Connection& connection, std::string serialized )
        {
            connection.outboxHead = std::move( serialized );
            connection.outboxBody.clear();
            connection.outboxSent = 0;
            connection.outboxTotal = connection.outboxHead.size();
        }

        static void
        queueResponse( Connection& connection, Response&& response )
        {
            connection.outboxHead = std::move( response.head );
            connection.outboxBody = std::move( response.body );
            connection.outboxSent = 0;
            connection.outboxTotal = connection.outboxHead.size();
            for ( const auto& span : connection.outboxBody ) {
                connection.outboxTotal += span.size;
            }
        }

        /** Returns false when the connection should be closed. */
        [[nodiscard]] bool
        handleReadable( Connection& connection )
        {
            char buffer[16 * 1024];
            /* Read until the socket is empty or the parser holds more than a
             * header block may take; it then holds a request or fails it
             * with 431. What a pipelining client sends beyond that waits in
             * the socket. */
            while ( connection.parser.bufferedBytes() <= RequestParser::MAX_HEADER_BYTES ) {
                const auto got = ::recv( connection.fd, buffer, sizeof( buffer ), 0 );
                if ( got > 0 ) {
                    connection.parser.feed( buffer, static_cast<std::size_t>( got ) );
                    connection.lastActivityMs = nowMs();
                    continue;
                }
                if ( got == 0 ) {
                    connection.peerClosed = true;
                    break;
                }
                if ( errno == EINTR ) {
                    continue;  /* interrupted, not an error */
                }
                if ( ( errno == EAGAIN ) || ( errno == EWOULDBLOCK ) ) {
                    break;
                }
                return false;  /* hard error */
            }
            if ( !tryDispatch( connection ) ) {
                return false;
            }
            return !connection.finished();
        }

        /** Parse and dispatch the next buffered request, if any: answer it
         * here when that needs no wait, else submit it to the workers.
         * Returns false when the connection should be closed immediately. */
        [[nodiscard]] bool
        tryDispatch( Connection& connection )
        {
            if ( connection.awaitingResponse || connection.hasOutbox() ) {
                return true;  /* strictly one response in flight per connection */
            }
            if ( connection.loopAnswerRound == round ) {
                /* One answer per connection per round: the rest of a
                 * pipelined batch waits for the next round, after the
                 * shard's other connections had their turn. */
                if ( ( connection.parser.bufferedBytes() > 0 ) && !connection.dispatchDeferred ) {
                    connection.dispatchDeferred = true;
                    deferred.push_back( connection.id );
                }
                return true;
            }
            HttpRequest request;
            if ( connection.parser.next( request ) ) {
                server->m_metrics.requestsTotal.addUnchecked( 1 );
                /* Arrival order: while a request waits unstarted in the
                 * worker queue, a hit queues behind it. */
                if ( server->m_unstartedRequests.load() == 0 ) {
                    if ( auto response = server->serveRequest( request, Wait::NEVER ) ) {
                        server->m_metrics.requestsOnLoop.addUnchecked( 1 );
                        connection.loopAnswerRound = round;
                        return respond( connection, std::move( *response ) );
                    }
                }
                connection.awaitingResponse = true;
                server->m_unstartedRequests.fetch_add( 1 );
                const auto id = connection.id;
                (void)server->m_workers.submit(
                    [owner = server, shard = this, id, request = std::move( request )] () {
                        owner->m_unstartedRequests.fetch_sub( 1 );
                        Completion completion;
                        completion.connectionId = id;
                        completion.response = *owner->serveRequest( request, Wait::ALLOWED );
                        {
                            const std::lock_guard<std::mutex> lock( shard->completionMutex );
                            shard->completions.push_back( std::move( completion ) );
                        }
                        shard->wake();
                    } );
                return true;
            }
            if ( connection.parser.failed() ) {
                const auto status = connection.parser.failureStatus();
                server->m_metrics.requestsTotal.addUnchecked( 1 );
                server->m_metrics.countStatus( status );
                queueHeadOnly( connection,
                               buildResponse( status, {}, reasonPhrase( status ),
                                              /* keepAlive */ false ) );
                connection.closeAfterFlush = true;
            }
            return true;
        }

        /** Scatter-gather flush of the outbox: header bytes plus borrowed
         * chunk spans in one sendmsg() per syscall, no intermediate copy.
         * Returns false when the connection should be closed. */
        [[nodiscard]] bool
        handleWritable( Connection& connection )
        {
            static constexpr std::size_t MAX_IOVECS = 64;
            while ( connection.outboxSent < connection.outboxTotal ) {
                /* serve.write probe: simulate a full socket (wait for
                 * POLLOUT) or a trickling one (truncated send) — never
                 * corrupt bytes. */
                std::size_t byteCap = std::numeric_limits<std::size_t>::max();
                if ( failsafe::shouldInject( failsafe::FaultPoint::SERVE_WRITE ) ) {
                    if ( failsafe::drawBelow( failsafe::FaultPoint::SERVE_WRITE, 2 ) == 0 ) {
                        return true;  /* as-if EAGAIN: POLLOUT will fire again */
                    }
                    byteCap = 1024;
                }

                iovec vectors[MAX_IOVECS];
                std::size_t vectorCount = 0;
                std::size_t gathered = 0;
                auto skip = connection.outboxSent;
                const auto append = [&] ( const std::uint8_t* data, std::size_t size ) {
                    if ( ( vectorCount == MAX_IOVECS ) || ( gathered >= byteCap ) ) {
                        return;
                    }
                    const auto take = std::min( size, byteCap - gathered );
                    vectors[vectorCount].iov_base =
                        const_cast<void*>( static_cast<const void*>( data ) );
                    vectors[vectorCount].iov_len = take;
                    ++vectorCount;
                    gathered += take;
                };
                if ( skip < connection.outboxHead.size() ) {
                    append( reinterpret_cast<const std::uint8_t*>( connection.outboxHead.data() )
                            + skip,
                            connection.outboxHead.size() - skip );
                    skip = 0;
                } else {
                    skip -= connection.outboxHead.size();
                }
                for ( const auto& span : connection.outboxBody ) {
                    if ( ( vectorCount == MAX_IOVECS ) || ( gathered >= byteCap ) ) {
                        break;
                    }
                    if ( skip >= span.size ) {
                        skip -= span.size;
                        continue;
                    }
                    append( span.data + skip, span.size - skip );
                    skip = 0;
                }

                msghdr message{};
                message.msg_iov = vectors;
                message.msg_iovlen = vectorCount;
                const auto sent = ::sendmsg( connection.fd, &message, MSG_NOSIGNAL );
                if ( sent > 0 ) {
                    connection.outboxSent += static_cast<std::size_t>( sent );
                    connection.lastActivityMs = nowMs();
                    continue;
                }
                if ( sent == 0 ) {
                    /* No bytes moved and no error reported: the socket can
                     * make no progress (peer gone mid-write). errno is
                     * STALE here — classifying it would mistake this for
                     * EAGAIN and strand the connection until the idle
                     * deadline. Close explicitly. */
                    return false;
                }
                if ( errno == EINTR ) {
                    continue;  /* interrupted, not an error */
                }
                if ( ( errno == EAGAIN ) || ( errno == EWOULDBLOCK ) ) {
                    return true;  /* socket full: POLLOUT will fire again */
                }
                return false;
            }
            /* Flushed: release the span refs — from here on the cache alone
             * decides how long the chunks stay resident. */
            connection.outboxHead.clear();
            connection.outboxBody.clear();
            connection.outboxSent = 0;
            connection.outboxTotal = 0;
            if ( connection.closeAfterFlush ) {
                return false;
            }
            /* Response sent: a pipelined follow-up may already be buffered. */
            if ( !tryDispatch( connection ) ) {
                return false;
            }
            return !connection.finished();
        }

        /** Queue @p response, from a worker or from this shard, and flush
         * what the socket takes now — most responses fit the socket buffer,
         * saving a poll round trip. Returns false when the connection should
         * be closed. */
        [[nodiscard]] bool
        respond( Connection& connection, Response&& response )
        {
            connection.awaitingResponse = false;
            const auto keepAlive = response.keepAlive;
            queueResponse( connection, std::move( response ) );
            /* During drain every flushed response ends its connection, so
             * keep-alive clients wind down instead of holding the drain. */
            connection.closeAfterFlush = !keepAlive || drainActive;
            connection.lastActivityMs = nowMs();
            return handleWritable( connection );
        }

        void
        drainCompletions()
        {
            std::vector<Completion> finished;
            {
                const std::lock_guard<std::mutex> lock( completionMutex );
                finished.swap( completions );
            }
            for ( auto& completion : finished ) {
                const auto match = connections.find( completion.connectionId );
                if ( match == connections.end() ) {
                    continue;  /* connection died while the worker was busy */
                }
                if ( !respond( match->second, std::move( completion.response ) ) ) {
                    closeConnection( completion.connectionId );
                }
            }
        }

        /** The requests that tryDispatch() held back a round. */
        void
        dispatchDeferred()
        {
            for ( const auto id : std::exchange( deferred, {} ) ) {
                const auto match = connections.find( id );
                if ( match == connections.end() ) {
                    continue;
                }
                auto& connection = match->second;
                connection.dispatchDeferred = false;
                if ( !tryDispatch( connection ) || connection.finished() ) {
                    closeConnection( id );
                }
            }
        }

        Server* server;
        int listenFd{ -1 };
        int wakeRead{ -1 };
        int wakeWrite{ -1 };
        std::map<std::uint64_t, Connection> connections;
        bool drainActive{ false };          /**< shard-thread mirror of the request */
        std::uint64_t drainDeadlineMs{ 0 };
        std::uint64_t round{ 0 };           /**< loop rounds so far */
        std::vector<std::uint64_t> deferred;  /**< connections tryDispatch() held back */

        std::mutex completionMutex;
        std::vector<Completion> completions;
    };

    /* --- request handling (workers, and shards without waiting) -------- */

    /** One request through the handler, timed as one serve.request span
     * and one sample of the request latency histogram. With Wait::NEVER it
     * answers only what needs no wait, and records nothing when it gives
     * up. */
    [[nodiscard]] std::optional<Response>
    serveRequest( const HttpRequest& request, Wait wait )
    {
        const auto beginNs = telemetry::nowNs();
        telemetry::Span requestSpan{ "serve", "serve.request" };
        auto response = handleRequest( request, request.keepAlive(), wait );
        if ( response ) {
            m_metrics.requestLatency.recordUnchecked( telemetry::nowNs() - beginNs );
        } else {
            requestSpan.dismiss();
        }
        return response;
    }

    /** The response; std::nullopt only with Wait::NEVER, when answering
     * would wait or the answer is an error or an endpoint's. */
    [[nodiscard]] std::optional<Response>
    handleRequest( const HttpRequest& request, bool keepAlive, Wait wait )
    {
        try {
            return handleRequestChecked( request, keepAlive, wait );
        } catch ( const std::exception& exception ) {
            if ( wait == Wait::NEVER ) {
                return std::nullopt;
            }
            /* A path outside the tree or not on disk is 404. Unknown
             * format, vendor library missing, corrupt archive, … — the
             * archive's problem, not the server's, but 500 is the honest
             * summary either way. */
            const auto notFound = dynamic_cast<const ArchiveNotFoundError*>( &exception ) != nullptr;
            return errorResponse( notFound ? 404 : 500, exception.what(), keepAlive );
        }
    }

    [[nodiscard]] static Response
    stringResponse( std::string serialized, bool keepAlive )
    {
        Response response;
        response.head = std::move( serialized );
        response.keepAlive = keepAlive;
        return response;
    }

    [[nodiscard]] Response
    errorResponse( int status, const std::string& message, bool keepAlive )
    {
        m_metrics.countStatus( status );
        return stringResponse( buildResponse( status, "Content-Type: text/plain\r\n",
                                              message + "\n", keepAlive ),
                               keepAlive );
    }

    [[nodiscard]] std::optional<Response>
    handleRequestChecked( const HttpRequest& request, bool keepAlive, Wait wait )
    {
        const bool isHead = request.method == "HEAD";
        auto target = request.target;
        if ( const auto query = target.find( '?' ); query != std::string::npos ) {
            target.erase( query );
        }
        if ( ( wait == Wait::NEVER )
             && ( ( ( request.method != "GET" ) && !isHead ) || ( target == "/healthz" )
                  || ( target == "/readyz" ) || ( target == "/metrics" ) ) ) {
            return std::nullopt;  /* only an archive's bytes are answered without a worker */
        }

        if ( ( request.method != "GET" ) && !isHead ) {
            return errorResponse( 405, "Only GET and HEAD are supported", keepAlive );
        }

        if ( target == "/healthz" ) {
            /* Liveness: the loops and workers are turning over. */
            m_metrics.countStatus( 200 );
            return stringResponse(
                isHead ? buildResponseHead( 200, 3, "Content-Type: text/plain\r\n", keepAlive )
                       : buildResponse( 200, "Content-Type: text/plain\r\n", "ok\n", keepAlive ),
                keepAlive );
        }
        if ( target == "/readyz" ) {
            /* Readiness: flips to 503 PROCESS-WIDE the moment a drain is
             * requested — the flag is one shared atomic read by every
             * shard — so load balancers stop routing before any listener
             * closes. */
            const auto ready = !draining();
            const auto status = ready ? 200 : 503;
            const std::string body = ready ? "ready\n" : "draining\n";
            m_metrics.countStatus( status );
            return stringResponse(
                isHead ? buildResponseHead( status, body.size(),
                                            "Content-Type: text/plain\r\n", keepAlive )
                       : buildResponse( status, "Content-Type: text/plain\r\n", body, keepAlive ),
                keepAlive );
        }
        if ( target == "/metrics" ) {
            const auto body = renderMetrics( m_metrics, m_sharedCache->statistics(),
                                             m_registry.openCount() );
            m_metrics.countStatus( 200 );
            return stringResponse(
                isHead ? buildResponseHead( 200, body.size(),
                                            "Content-Type: text/plain\r\n", keepAlive )
                       : buildResponse( 200, "Content-Type: text/plain\r\n", body, keepAlive ),
                keepAlive );
        }

        /* Without waiting, every step below gives up before it counts or
         * decodes anything: the archive must be open, its size known, and
         * every chunk of the range decoded in a cache tier. A worker counts
         * the request once the archive is open, whatever the read does; the
         * loop counts it only once its answer stands. */
        const auto decompressor = m_registry.open( target, wait );
        if ( wait == Wait::ALLOWED ) {
            m_metrics.countArchiveRequest( target );
        }
        const auto totalSize = decompressor ? decompressor->size( wait ) : std::nullopt;
        if ( !totalSize ) {
            return std::nullopt;
        }

        if ( isHead ) {
            if ( wait == Wait::NEVER ) {
                m_metrics.countArchiveRequest( target );
            }
            m_metrics.countStatus( 200 );
            return stringResponse( buildResponseHead( 200, *totalSize, {}, keepAlive ),
                                   keepAlive );
        }

        const auto range = resolveRange( request.header( "range" ), *totalSize );
        if ( range.outcome == RangeOutcome::UNSATISFIABLE ) {
            if ( wait == Wait::NEVER ) {
                return std::nullopt;
            }
            m_metrics.countStatus( 416 );
            return stringResponse(
                buildResponse( 416,
                               "Content-Range: bytes */" + std::to_string( *totalSize ) + "\r\n",
                               {}, keepAlive ),
                keepAlive );
        }

        const auto first = range.outcome == RangeOutcome::RANGE ? range.first : 0;
        const auto length = range.outcome == RangeOutcome::RANGE ? range.length : *totalSize;

        /* Zero-copy body: refcounted spans lent straight out of cached
         * decoded chunks. No byte of the range is copied on this path; the
         * spans keep their chunks alive until the socket flush drops them,
         * so LRU eviction during the write is harmless. */
        Response response;
        response.keepAlive = keepAlive;
        const auto got = decompressor->readSpansAt( first, length, response.body, wait );
        if ( got != length ) {
            if ( wait == Wait::NEVER ) {
                return std::nullopt;
            }
            return errorResponse( 500, "Decoded range came up short", keepAlive );
        }
        if ( wait == Wait::NEVER ) {
            m_metrics.countArchiveRequest( target );
        }
        for ( const auto& span : response.body ) {
            if ( span.borrowed ) {
                m_metrics.zeroCopyBytes.addUnchecked( span.size );
                m_metrics.zeroCopySpans.addUnchecked( 1 );
            } else {
                m_metrics.rangeCopyBytes.addUnchecked( span.size );
            }
        }

        m_metrics.bytesServed.addUnchecked( length );
        if ( range.outcome == RangeOutcome::RANGE ) {
            m_metrics.countStatus( 206 );
            const auto contentRange = "Content-Range: bytes " + std::to_string( first ) + "-"
                                      + std::to_string( first + length - 1 ) + "/"
                                      + std::to_string( *totalSize ) + "\r\n";
            response.head = buildResponseHead( 206, length, contentRange, keepAlive );
            return response;
        }
        m_metrics.countStatus( 200 );
        response.head = buildResponseHead( 200, length, {}, keepAlive );
        return response;
    }

    ServerConfiguration m_configuration;
    std::shared_ptr<LruChunkCache> m_sharedCache;
    ArchiveRegistry m_registry;
    ServeMetrics m_metrics;

    std::vector<std::unique_ptr<Shard> > m_shards;
    std::atomic<std::uint16_t> m_port{ 0 };
    std::atomic<bool> m_stopRequested{ false };
    std::atomic<bool> m_drainRequested{ false };
    std::atomic<std::uint64_t> m_nextConnectionId{ 0 };
    std::atomic<std::size_t> m_liveConnections{ 0 };
    /** Requests submitted to the workers that no worker started yet. */
    std::atomic<std::size_t> m_unstartedRequests{ 0 };

    /* Pool last: its destructor runs first, joining workers that use the
     * registry, cache, metrics, and per-shard completion queues above. */
    ThreadPool m_workers;
};

}  // namespace rapidgzip::serve
