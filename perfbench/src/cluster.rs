//! The in-process cluster: `JobService` → `NetServer`, optionally
//! behind a gateway.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use tpi_gateway::{Gateway, GatewayConfig, GatewayHandler};
use tpi_net::{NetServer, ServerConfig, ServerHandle};
use tpi_serve::{JobService, ServiceConfig};

/// One `tpi-netd` backend.
pub struct Backend {
    /// The service behind the server; in-process submits share its
    /// cache.
    pub service: Arc<JobService>,
    /// Where the backend listens.
    pub addr: String,
    server: (ServerHandle, JoinHandle<io::Result<()>>),
}

/// A running cluster.
pub struct Cluster {
    /// The backends, in ring order.
    pub backends: Vec<Backend>,
    gateway: Option<(Arc<Gateway>, ServerHandle, JoinHandle<io::Result<()>>)>,
    addr: String,
}

/// A service with `workers` workers and the default 256-payload LRU.
pub fn service(workers: usize) -> JobService {
    JobService::new(ServiceConfig { threads: workers, ..ServiceConfig::default() })
}

fn backend(workers: usize) -> io::Result<Backend> {
    let service = Arc::new(service(workers));
    let server = NetServer::bind(ServerConfig::default(), Arc::clone(&service))?;
    let addr = server.local_addr().to_string();
    Ok(Backend { service, addr, server: server.spawn() })
}

impl Cluster {
    /// One backend with `workers` workers; clients connect to it.
    pub fn direct(workers: usize) -> io::Result<Cluster> {
        let b = backend(workers)?;
        let addr = b.addr.clone();
        Ok(Cluster { backends: vec![b], gateway: None, addr })
    }

    /// `backends` backends of `workers` workers each behind one gateway;
    /// clients connect to the gateway.
    pub fn gateway(backends: usize, workers: usize) -> io::Result<Cluster> {
        let backends = (0..backends).map(|_| backend(workers)).collect::<io::Result<Vec<_>>>()?;
        let gateway = Arc::new(Gateway::new(GatewayConfig {
            backends: backends.iter().map(|b| b.addr.clone()).collect(),
            ..GatewayConfig::default()
        }));
        let server = NetServer::bind_with(
            ServerConfig::default(),
            GatewayHandler::new(Arc::clone(&gateway)),
        )?;
        let addr = server.local_addr().to_string();
        let (handle, join) = server.spawn();
        Ok(Cluster { backends, gateway: Some((gateway, handle, join)), addr })
    }

    /// The address clients use.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Workers across every backend.
    pub fn workers(&self) -> usize {
        self.backends.iter().map(|b| b.service.workers()).sum()
    }

    /// The gateway's `tpi-gateway-metrics/v1` snapshot, if there is one.
    pub fn gateway_metrics(&self) -> Option<String> {
        self.gateway.as_ref().map(|(g, _, _)| g.metrics_json())
    }

    /// Stops the gateway, then every backend, draining in-flight jobs
    /// and joining every server thread and worker.
    pub fn shutdown(self) {
        if let Some((gateway, handle, join)) = self.gateway {
            handle.shutdown();
            let _ = join.join();
            drop(gateway);
        }
        for b in self.backends {
            let (handle, join) = b.server;
            handle.shutdown();
            let _ = join.join();
        }
    }
}
